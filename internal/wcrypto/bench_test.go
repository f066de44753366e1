package wcrypto

import (
	"fmt"
	"testing"

	"wedgechain/internal/wire"
)

// Micro-benchmarks for the crypto hot paths: raw sign/verify, the pooled
// signable-body encoding, and the verify pool against inline
// verification. A loop that checks one fixed signature calls
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

// BenchmarkVerifyMsgPutBatch verifies a session-signed 100-entry batch
// (one hash of the 15 KB body, one Ed25519 verification).
func benchBatch() (*Registry, wire.Envelope) {
	k := DeterministicKey("c1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	batch := &wire.PutBatch{Client: k.ID}
	for i := 0; i < 100; i++ {
		batch.Entries = append(batch.Entries, wire.Entry{
			Client: k.ID, Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%08d", i)), Value: make([]byte, 100)})
	}
	batch.BatchSig = SignMsg(k, batch)
	return reg, wire.Envelope{From: k.ID, To: "edge-1", Msg: batch}
}

func BenchmarkVerifyMsgPutBatch(b *testing.B) {
	reg, env := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		if !PreVerify(reg, env) {
			b.Fatal("verify failed")
		}
	}
}

// benchMerge is a compaction request of about 1 MB — 60 pages of 100
// records — with the page leaves its sender holds in its index tree.
func benchMerge(k KeyPair) (m *wire.MergeRequest, leaves [][]byte) {
	m = &wire.MergeRequest{Edge: k.ID, ReqID: 1, FromLevel: 1}
	for p := 0; p < 60; p++ {
		page := wire.Page{Level: 1, Seq: uint64(p), Ts: 1}
		for i := 0; i < 100; i++ {
			page.KVs = append(page.KVs, wire.KV{
				Key: []byte(fmt.Sprintf("k%08d", p*100+i)), Value: make([]byte, 128), Ver: uint64(i + 1)})
		}
		page.Count = uint32(len(page.KVs))
		m.SrcPages = append(m.SrcPages, page)
		leaves = append(leaves, page.Leaf())
	}
	return m, leaves
}

// BenchmarkSignMergeRequest signs the largest message the edge sends, the
// way the edge does: over the 60 leaves it already holds, not the megabyte
// they commit (which is what this benchmark's predecessor, SignMsgMerge1MB,
// hashed).
func BenchmarkSignMergeRequest(b *testing.B) {
	k := DeterministicKey("edge-1")
	m, leaves := benchMerge(k)
	b.SetBytes(int64(wire.EncodedSize(wire.Envelope{Msg: m})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignMergeRequest(k, m, nil, leaves, nil)
	}
}

// BenchmarkVerifyMergeRequest is the cloud's side: recompute every leaf
// from the shipped pages — once, for the leaf-table check too — and check
// the signature over them.
func BenchmarkVerifyMergeRequest(b *testing.B) {
	k := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	m, leaves := benchMerge(k)
	m.EdgeSig = SignMergeRequest(k, m, nil, leaves, nil)
	b.SetBytes(int64(wire.EncodedSize(wire.Envelope{Msg: m})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		got := make([][]byte, len(m.SrcPages))
		for p := range m.SrcPages {
			got[p] = m.SrcPages[p].Leaf()
		}
		if err := VerifyMergeRequest(reg, k.ID, m, nil, got, nil); err != nil {
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

func BenchmarkVerifyPoolThroughput(b *testing.B) {
	k := DeterministicKey("c1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	// Distinct requests, more of them than the memo remembers: every
	// verification the pool performs is a first verification.
	envs := make([]wire.Envelope, min(b.N, 2*MemoCap))
	for i := range envs {
		envs[i] = wire.Envelope{From: k.ID, To: "edge-1", Msg: &wire.PutRequest{Entry: benchEntry(k, uint64(i+1))}}
	}
	done := make(chan struct{}, 1)
	n := 0
	pool := NewVerifyPool(reg, -1, 256, func(out wire.Envelope) {
		if !out.Verified {
			panic("verify failed")
		}
		if n++; n == b.N {
			done <- struct{}{}
		}
	})
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Submit(envs[i%len(envs)])
	}
	<-done
}
