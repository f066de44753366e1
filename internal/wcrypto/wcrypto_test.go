package wcrypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"wedgechain/internal/wire"
)

func TestSignVerify(t *testing.T) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)

	msg := []byte("block digest payload")
	sig := k.Sign(msg)
	if err := reg.Verify("edge-1", msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)

	msg := []byte("original")
	sig := k.Sign(msg)
	if err := reg.Verify("edge-1", []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	edge := DeterministicKey("edge-1")
	evil := DeterministicKey("edge-evil")
	reg := NewRegistry()
	reg.Register(edge.ID, edge.Pub)
	reg.Register(evil.ID, evil.Pub)

	msg := []byte("payload")
	sig := evil.Sign(msg)
	if err := reg.Verify("edge-1", msg, sig); err == nil {
		t.Fatal("forged identity accepted")
	}
}

func TestVerifyRejectsUnknownIdentity(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Verify("ghost", []byte("x"), make([]byte, 64)); err == nil {
		t.Fatal("unknown identity accepted")
	}
}

func TestVerifyRejectsMalformedSignature(t *testing.T) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	for _, n := range []int{0, 1, 63, 65} {
		if err := reg.Verify("edge-1", []byte("x"), make([]byte, n)); err == nil {
			t.Fatalf("signature of length %d accepted", n)
		}
	}
}

func TestDeterministicKeyIsStable(t *testing.T) {
	a := DeterministicKey("node")
	b := DeterministicKey("node")
	if !bytes.Equal(a.Priv, b.Priv) {
		t.Fatal("DeterministicKey not deterministic")
	}
	c := DeterministicKey("other")
	if bytes.Equal(a.Priv, c.Priv) {
		t.Fatal("distinct ids produced the same key")
	}
}

func TestGenerateKeyDistinct(t *testing.T) {
	a, err := GenerateKey("n1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey("n1")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Priv, b.Priv) {
		t.Fatal("GenerateKey returned identical keys")
	}
}

func TestDigestProperties(t *testing.T) {
	// Deterministic, fixed size, sensitive to single-bit changes.
	f := func(b []byte) bool {
		d1 := Digest(b)
		d2 := Digest(b)
		if !bytes.Equal(d1, d2) || len(d1) != DigestSize {
			return false
		}
		if len(b) > 0 {
			mut := append([]byte{}, b...)
			mut[0] ^= 1
			if bytes.Equal(Digest(mut), d1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignVerifyMsgHelpers(t *testing.T) {
	k := DeterministicKey("cloud")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)

	bp := &wire.BlockProof{Edge: "edge-1", BID: 9, Digest: Digest([]byte("b"))}
	bp.CloudSig = SignMsg(k, bp)
	if err := VerifyMsg(reg, "cloud", bp, bp.CloudSig); err != nil {
		t.Fatalf("VerifyMsg: %v", err)
	}
	bp.BID = 10 // tamper with a signed field
	if err := VerifyMsg(reg, "cloud", bp, bp.CloudSig); err == nil {
		t.Fatal("tampered BlockProof accepted")
	}
}

func TestBlockDigestBindsContent(t *testing.T) {
	b1 := &wire.Block{Edge: "e", ID: 1, Entries: []wire.Entry{{Client: "c", Value: []byte("v1")}}}
	b2 := &wire.Block{Edge: "e", ID: 1, Entries: []wire.Entry{{Client: "c", Value: []byte("v2")}}}
	if bytes.Equal(BlockDigest(b1), BlockDigest(b2)) {
		t.Fatal("blocks with different contents share a digest")
	}
	b3 := &wire.Block{Edge: "e", ID: 2, Entries: b1.Entries}
	if bytes.Equal(BlockDigest(b1), BlockDigest(b3)) {
		t.Fatal("blocks with different ids share a digest")
	}
}

// ackBlock builds a frozen block with a cached digest, as the edge's log
// produces at block cut.
func ackBlock(entries int) *wire.Block {
	b := &wire.Block{Edge: "edge-1", ID: 9, StartPos: 900, Ts: 5}
	for i := 0; i < entries; i++ {
		b.Entries = append(b.Entries, wire.Entry{
			Client: "c1", Seq: uint64(i + 1),
			Key: []byte("k"), Value: make([]byte, 100), Ts: int64(i),
		})
	}
	b.Freeze()
	BlockDigest(b)
	return b
}

// TestSignBlockAckMatchesGenericVerify pins the digest-signing contract:
// the edge signs with the cached digest (SignBlockAck) and the signature
// verifies through every path a receiver uses — the generic VerifyMsg on
// PutResponse (which recomputes the digest from the block) and the
// digest-in-hand VerifyBlockAck.
func TestSignBlockAckMatchesGenericVerify(t *testing.T) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	blk := ackBlock(3)

	sig := SignBlockAck(k, blk.ID, blk.CachedDigest())
	put := &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: sig}
	if err := VerifyMsg(reg, k.ID, put, put.EdgeSig); err != nil {
		t.Fatalf("PutResponse rejects digest-signed ack: %v", err)
	}
	if err := VerifyBlockAck(reg, k.ID, blk.ID, RecomputedBlockDigest(blk), sig); err != nil {
		t.Fatalf("VerifyBlockAck rejects digest-signed ack: %v", err)
	}
	// The signature must bind the block id.
	if err := VerifyBlockAck(reg, k.ID, blk.ID+1, RecomputedBlockDigest(blk), sig); err == nil {
		t.Fatal("ack signature accepted for wrong block id")
	}
}

// TestAckSignatureBindsBlockBody is the adversarial-parity core of digest
// signing: a block whose frozen cache still holds the honest digest but
// whose fields were tampered (cache poisoning — possible only for blocks
// moved by reference in-process) must fail verification everywhere,
// because every verify path recomputes the digest from the fields.
func TestAckSignatureBindsBlockBody(t *testing.T) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	blk := ackBlock(3)
	sig := SignBlockAck(k, blk.ID, blk.CachedDigest())

	poisoned := *blk // shares the honest cache
	poisoned.Entries = append([]wire.Entry(nil), blk.Entries...)
	poisoned.Entries[1].Value = []byte("evil")
	if bytes.Equal(RecomputedBlockDigest(&poisoned), poisoned.CachedDigest()) {
		t.Fatal("test setup: cache not poisoned")
	}

	put := &wire.PutResponse{BID: blk.ID, Block: poisoned, EdgeSig: sig}
	if err := VerifyMsg(reg, k.ID, put, put.EdgeSig); err == nil {
		t.Fatal("PutResponse with poisoned cache verified")
	}
	read := &wire.ReadResponse{ReqID: 1, BID: blk.ID, OK: true, Block: poisoned}
	read.EdgeSig = SignMsg(k, &wire.ReadResponse{ReqID: 1, BID: blk.ID, OK: true, Block: *blk})
	if err := VerifyMsg(reg, k.ID, read, read.EdgeSig); err == nil {
		t.Fatal("ReadResponse with poisoned cache verified")
	}
}
