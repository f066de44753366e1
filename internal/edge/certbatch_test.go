package edge

import (
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// signedBatch builds a cloud-signed certificate batch over the given
// digests starting at bid start.
func signedBatch(keys map[wire.NodeID]wcrypto.KeyPair, start uint64, digests [][]byte) *wire.BlockCertBatch {
	b := &wire.BlockCertBatch{Edge: "edge-1", Start: start, Digests: digests}
	b.CloudSig = wcrypto.SignMsg(keys["cloud"], b)
	return b
}

// TestEdgeBatchesCertifies: with CertBatch > 1 the leader ships one
// signed BlockCertifyBatch per CertBatch contiguous cut blocks instead
// of per-block certifies.
func TestEdgeBatchesCertifies(t *testing.T) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"edge-1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	n := New(Config{ID: "edge-1", Cloud: "cloud", BatchSize: 1, CertBatch: 2}, keys["edge-1"], reg)

	var batches []*wire.BlockCertifyBatch
	write := func(seq uint64) {
		e := wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		out := n.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}})
		for _, env := range out {
			if m, ok := env.Msg.(*wire.BlockCertify); ok {
				t.Fatalf("batching edge sent a single certify: %+v", m)
			}
			if m, ok := env.Msg.(*wire.BlockCertifyBatch); ok {
				batches = append(batches, m)
			}
		}
	}
	write(1)
	if len(batches) != 0 {
		t.Fatal("partial run flushed before CertBatch")
	}
	write(2)
	if len(batches) != 1 {
		t.Fatalf("batches after 2 blocks = %d, want 1", len(batches))
	}
	b := batches[0]
	if b.Start != 0 || len(b.Digests) != 2 {
		t.Fatalf("batch = %+v", b)
	}
	if err := wcrypto.VerifyMsg(reg, "edge-1", b, b.EdgeSig); err != nil {
		t.Fatalf("batch signature: %v", err)
	}

	// A lone block rides the next Tick instead of waiting for a sibling.
	write(3)
	var tickBatch *wire.BlockCertifyBatch
	for _, env := range n.Tick(2) {
		if m, ok := env.Msg.(*wire.BlockCertifyBatch); ok {
			tickBatch = m
		}
	}
	if tickBatch == nil || tickBatch.Start != 2 || len(tickBatch.Digests) != 1 {
		t.Fatalf("tick flush batch = %+v", tickBatch)
	}

	// Applying the cloud's batched certificate upgrades every covered
	// block and forwards the batch (not synthesized proofs) to the
	// waiting client.
	digests := append(append([][]byte(nil), b.Digests...), tickBatch.Digests...)
	out := n.Receive(3, wire.Envelope{From: "cloud", To: "edge-1", Msg: signedBatch(keys, 0, digests)})
	if got := n.log.CertifiedBlocks(); got != 3 {
		t.Fatalf("certified blocks = %d, want 3", got)
	}
	var forwarded *wire.BlockCertBatch
	for _, env := range out {
		if m, ok := env.Msg.(*wire.BlockCertBatch); ok && env.To == "c1" {
			if forwarded != nil {
				t.Fatal("client notified more than once for one batch")
			}
			forwarded = m
		}
	}
	if forwarded == nil {
		t.Fatal("covering batch not forwarded to the contributing client")
	}
}

// TestEdgeReadServesRetainedBatch: a read of a batch-certified block
// cannot embed a proof (the log cert has no individual cloud signature);
// the covering batch rides as its own envelope instead.
func TestEdgeReadServesRetainedBatch(t *testing.T) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"edge-1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	n := New(Config{ID: "edge-1", Cloud: "cloud", BatchSize: 1, CertBatch: 2}, keys["edge-1"], reg)
	e := wire.Entry{Client: "c1", Seq: 1, Value: []byte("v")}
	e.Sig = wcrypto.SignMsg(keys["c1"], &e)
	n.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}})
	d, err := n.log.Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	n.Receive(2, wire.Envelope{From: "cloud", To: "edge-1", Msg: signedBatch(keys, 0, [][]byte{d})})

	out := n.Receive(3, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{ReqID: 1, BID: 0}})
	if len(out) != 2 {
		t.Fatalf("read outputs = %d, want response + batch", len(out))
	}
	resp := out[0].Msg.(*wire.ReadResponse)
	if resp.HasProof {
		t.Fatal("batch-covered cert embedded as an unverifiable proof")
	}
	if _, ok := out[1].Msg.(*wire.BlockCertBatch); !ok {
		t.Fatalf("second read output = %T, want BlockCertBatch", out[1].Msg)
	}
}

// TestFollowerConvictsTamperedBatchEntry is the adversarial batch-cert
// case: one contradicting digest inside an otherwise honest batch
// convicts the leader for that block, while the honest entries still
// certify the mirror.
func TestFollowerConvictsTamperedBatchEntry(t *testing.T) {
	p := newReplicaPair(t)
	p.deliver(p.cutBlock(t, 1, 1))
	p.deliver(p.cutBlock(t, 2, 10))

	d0, err := p.follower.log.Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	tampered := wcrypto.Digest([]byte("not-what-was-replicated"))
	b := signedBatch(p.keys, 0, [][]byte{d0, tampered})
	out := p.follower.Receive(3, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: b})

	var disputes int
	for _, env := range out {
		if env.Msg.MsgKind() == wire.KindDispute && env.To == "cloud" {
			disputes++
		}
	}
	if disputes != 1 {
		t.Fatalf("disputes filed = %d, want 1 (the tampered entry)", disputes)
	}
	if got := p.follower.log.CertifiedBlocks(); got != 1 {
		t.Fatalf("certified blocks = %d, want 1 (the honest entry)", got)
	}

	// A forged batch touches nothing.
	forged := &wire.BlockCertBatch{Edge: "edge-1", Start: 0, Digests: [][]byte{d0}}
	forged.CloudSig = wcrypto.SignMsg(p.keys["c1"], forged)
	if out := p.follower.Receive(4, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: forged}); out != nil {
		t.Fatalf("forged batch produced output: %v", out)
	}
}
