package wcrypto

import (
	"fmt"
	"runtime"
	"testing"

	"wedgechain/internal/wire"
)

// Micro-benchmarks for the crypto hot paths: raw sign/verify, the pooled
// signable-body encoding and per-kind signature checks. A loop that checks one fixed signature calls
// ForgetVerified every iteration, so it times a first verification;
// BenchmarkVerifyMemoHit times the repeat.

func benchEntry(k KeyPair, seq uint64) wire.Entry {
	e := wire.Entry{
		Client: k.ID,
		Seq:    seq,
		Key:    []byte("k00000042"),
		Value:  make([]byte, 100),
		Ts:     int64(seq),
	}
	e.Sig = SignMsg(k, &e)
	return e
}

func BenchmarkSignEntry(b *testing.B) {
	k := DeterministicKey("c1")
	e := benchEntry(k, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignMsg(k, &e)
	}
}

func BenchmarkVerifyEntry(b *testing.B) {
	k := DeterministicKey("c1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	e := benchEntry(k, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		if err := VerifyMsg(reg, k.ID, &e, e.Sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignableBodyPooled measures the pooled signable encoding
// SignMsg/VerifyMsg use.
func BenchmarkSignableBodyPooled(b *testing.B) {
	k := DeterministicKey("c1")
	ent := benchEntry(k, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := wire.GetEncoder()
		ent.AppendBody(e)
		wire.PutEncoder(e)
	}
}

// benchBatch is a 100-entry batch c1 MACed for edge-1, and the registry
// edge-1 checks it against.
func benchBatch() (*Registry, KeyPair, *wire.PutBatch) {
	c, e := DeterministicKey("c1"), DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(c.ID, c.Pub)
	reg.Register(e.ID, e.Pub)
	batch := &wire.PutBatch{Client: c.ID}
	for i := 0; i < 100; i++ {
		batch.Entries = append(batch.Entries, wire.Entry{
			Client: c.ID, Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%08d", i)), Value: make([]byte, 100)})
	}
	var err error
	if batch.MAC, err = MAC(reg, c, c.ID, e.ID, batch); err != nil {
		panic(err)
	}
	return reg, e, batch
}

// BenchmarkVerifyMACPutBatch is what the edge pays per write batch: the
// MAC over the 100-entry batch (one HMAC-SHA256 of the 12 KB body) under
// the pair key its registry already holds.
func BenchmarkVerifyMACPutBatch(b *testing.B) {
	reg, e, batch := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyMAC(reg, e, batch.Client, e.ID, batch, batch.MAC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivePairKey is what a party pays once per peer for the pair
// key: the Edwards-to-Montgomery map of both keys and one X25519.
func BenchmarkDerivePairKey(b *testing.B) {
	c, e := DeterministicKey("c1"), DeterministicKey("edge-1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := derivePairKey(e.Priv, c.Pub, c.ID, e.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMerge is the largest message the edge sends: an L0 compaction
// request of 10 certified blocks of 100 puts, about 250 KB, with the
// digests its sender cached at their cut.
func benchMerge(k KeyPair) (m *wire.MergeRequest, digests [][]byte) {
	m = &wire.MergeRequest{Edge: k.ID, ReqID: 1}
	for b := 0; b < 10; b++ {
		blk := wire.Block{Edge: k.ID, ID: uint64(b), StartPos: uint64(b * 100), Ts: 1}
		for i := 0; i < 100; i++ {
			blk.Entries = append(blk.Entries, wire.Entry{Client: "c1", Seq: uint64(b*100 + i),
				Key: []byte(fmt.Sprintf("k%08d", b*100+i)), Value: make([]byte, 128), Sig: make([]byte, 64)})
		}
		m.L0Blocks = append(m.L0Blocks, blk)
		digests = append(digests, blk.BodyDigest())
	}
	return m, digests
}

// BenchmarkSignMergeRequest signs the largest message the edge sends, the
// way the edge does: over the 10 digests it already holds, not the blocks
// they commit.
func BenchmarkSignMergeRequest(b *testing.B) {
	k := DeterministicKey("edge-1")
	m, digests := benchMerge(k)
	b.SetBytes(int64(wire.EncodedSize(wire.Envelope{Msg: m})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignMergeRequest(k, m, digests)
	}
}

// BenchmarkVerifyMergeRequest is the cloud's side: recompute every block
// digest from the shipped blocks — once, for the certified-digest check
// too — and check the signature over them.
func BenchmarkVerifyMergeRequest(b *testing.B) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	m, digests := benchMerge(k)
	m.EdgeSig = SignMergeRequest(k, m, digests)
	b.SetBytes(int64(wire.EncodedSize(wire.Envelope{Msg: m})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		got := make([][]byte, len(m.L0Blocks))
		for j := range m.L0Blocks {
			got[j] = RecomputedBlockDigest(&m.L0Blocks[j])
		}
		if err := VerifyMergeRequest(reg, k.ID, m, got); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProof is the statement clients see again and again: a cloud-signed
// block certificate.
func benchProof() (*Registry, *wire.BlockProof) {
	k := DeterministicKey("cloud")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	p := &wire.BlockProof{Edge: "edge-1", BID: 7, Digest: Digest([]byte("blk"))}
	p.CloudSig = SignMsg(k, p)
	return reg, p
}

// BenchmarkVerifyMemoMiss is the first verification of a certificate
// (hash, lookup, Ed25519, insert); BenchmarkVerifyMemoHit is every later
// one against the same registry (hash, lookup).
func BenchmarkVerifyMemoMiss(b *testing.B) {
	reg, p := benchProof()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		if err := VerifyMsg(reg, "cloud", p, p.CloudSig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyMemoHit(b *testing.B) {
	reg, p := benchProof()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyMsg(reg, "cloud", p, p.CloudSig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryResidentBytes is the memory a busy registry keeps for
// its memo: 100,000 one-shot triples, and one statement presented again
// after every 100 of them, then the live heap the registry holds after a
// collection — the layer counterpart of the macro benchmark's
// heap_bytes_per_put. The one-shots are recorded through remember
// (synthetic fingerprints: the bound does not depend on the curve).
func BenchmarkRegistryResidentBytes(b *testing.B) {
	const oneShots = 100_000
	var before, after runtime.MemStats
	var live float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		reg, p := benchProof()
		for j := 0; j < oneShots; j++ {
			var fp fingerprint
			fp[0], fp[1], fp[2] = byte(j), byte(j>>8), byte(j>>16)
			reg.mu.Lock()
			reg.remember(fp)
			reg.mu.Unlock()
			if j%100 == 0 {
				if err := VerifyMsg(reg, "cloud", p, p.CloudSig); err != nil {
					b.Fatal(err)
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		live = float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
		runtime.KeepAlive(reg)
	}
	b.ReportMetric(live, "live-B/registry")
}
