package cloud

import (
	"bytes"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Certification-at-scale tests: batched certificates, same-turn
// certification and the verdict cache.

// TestCertifyHistogramObservesBothPaths pins the satellite fix: the
// certify-latency histogram must record a sample whether or not the
// envelope arrived pre-verified (the old fast path returned before
// Observe).
func TestCertifyHistogramObservesBothPaths(t *testing.T) {
	f := newFixture(t, Config{}) // Metrics nil: private-registry fallback
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: wcrypto.Digest([]byte("b0"))}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m, Verified: true})
	if got := f.node.m.certify.Count(); got != 1 {
		t.Fatalf("certify histogram count after pre-verified path = %d, want 1", got)
	}
	m2 := &wire.BlockCertify{Edge: "edge-1", BID: 1, Digest: wcrypto.Digest([]byte("b1"))}
	m2.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m2)
	f.node.Receive(2, wire.Envelope{From: "edge-1", To: "cloud", Msg: m2})
	if got := f.node.m.certify.Count(); got != 2 {
		t.Fatalf("certify histogram count after inline-verify path = %d, want 2", got)
	}
}

func (f *fixture) dispute(t *testing.T, d *wire.Dispute) []wire.Envelope {
	t.Helper()
	return f.node.Receive(9, wire.Envelope{From: "c1", To: "cloud", Msg: d})
}

// lyingDispute builds a well-formed accusation whose evidence contradicts
// the certified digest for bid 0 — a distinct lie per tamper value.
func (f *fixture) lyingDispute(honest wire.Block, tamper string) *wire.Dispute {
	lied := honest
	lied.Entries = append([]wire.Entry(nil), honest.Entries...)
	lied.Entries[0].Value = []byte(tamper)
	ev := &wire.PutResponse{BID: honest.ID, Block: lied}
	ev.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], ev)
	return core.BuildAddLieDispute(f.keys["c1"], "edge-1", ev)
}

// TestDisputeFloodHitsVerdictCache: N re-filings of the same lie cost one
// Judge decode and replay a byte-identical signed verdict; M distinct
// lies cost exactly M decodes. Conviction semantics are unchanged — the
// edge is banned once, by the first guilty adjudication.
func TestDisputeFloodHitsVerdictCache(t *testing.T) {
	f := newFixture(t, Config{})
	honest := f.buildCertifiedBlock(t, 0, "a")

	const dups, distinct = 7, 3
	var first []byte
	for i := 0; i < dups+1; i++ {
		out := f.dispute(t, f.lyingDispute(honest, "same-lie"))
		v, ok := out[0].Msg.(*wire.Verdict)
		if !ok || !v.Guilty {
			t.Fatalf("flood round %d: verdict = %+v", i, out[0].Msg)
		}
		if first == nil {
			first = v.CloudSig
		} else if !bytes.Equal(first, v.CloudSig) {
			t.Fatalf("flood round %d: replayed verdict re-signed", i)
		}
	}
	for i := 1; i < distinct; i++ {
		f.dispute(t, f.lyingDispute(honest, "lie-"+string(rune('a'+i))))
	}
	s := f.node.Stats()
	if s.JudgeDecodes != distinct {
		t.Fatalf("JudgeDecodes = %d, want %d (one per distinct lie)", s.JudgeDecodes, distinct)
	}
	if s.VerdictCacheHits != dups {
		t.Fatalf("VerdictCacheHits = %d, want %d", s.VerdictCacheHits, dups)
	}
	if s.GuiltyEdges != 1 {
		t.Fatalf("GuiltyEdges = %d, want 1", s.GuiltyEdges)
	}
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("lying edge not banned")
	}
}

// TestForgedDisputeCannotTouchCache: a bad claimant signature is rejected
// before any cache access and never seeds a verdict.
func TestForgedDisputeCannotTouchCache(t *testing.T) {
	f := newFixture(t, Config{})
	honest := f.buildCertifiedBlock(t, 0, "a")
	d := f.lyingDispute(honest, "lie")
	d.ClientSig = wcrypto.SignMsg(f.keys["edge-1"], d) // wrong signer
	out := f.dispute(t, d)
	if v := out[0].Msg.(*wire.Verdict); v.Guilty {
		t.Fatalf("forged dispute convicted: %+v", v)
	}
	s := f.node.Stats()
	if s.JudgeDecodes != 0 || s.VerdictCacheHits != 0 {
		t.Fatalf("forged dispute reached judge/cache: decodes=%d hits=%d", s.JudgeDecodes, s.VerdictCacheHits)
	}
}

func batchOf(out []wire.Envelope) *wire.BlockCertBatch {
	for _, env := range out {
		if b, ok := env.Msg.(*wire.BlockCertBatch); ok {
			return b
		}
	}
	return nil
}

// TestBatchedCertifyFlushesAtCertBatch: CertBatch accepted certifications
// are covered by one signed BlockCertBatch, and no per-block proofs are
// signed along the way.
func TestBatchedCertifyFlushesAtCertBatch(t *testing.T) {
	f := newFixture(t, Config{CertBatch: 4})
	digests := make([][]byte, 4)
	var out []wire.Envelope
	for i := range digests {
		digests[i] = wcrypto.Digest([]byte{byte(i)})
		out = f.certify(t, uint64(i), digests[i])
	}
	b := batchOf(out)
	if b == nil {
		t.Fatalf("no batch after %d certifies: %v", len(digests), out)
	}
	if b.Edge != "edge-1" || b.Start != 0 || len(b.Digests) != 4 {
		t.Fatalf("batch = %+v", b)
	}
	for i, d := range b.Digests {
		if !bytes.Equal(d, digests[i]) {
			t.Fatalf("batch digest %d mismatch", i)
		}
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", b, b.CloudSig); err != nil {
		t.Fatalf("batch signature: %v", err)
	}
	s := f.node.Stats()
	if s.Certifies != 4 || s.ProofSigns != 0 {
		t.Fatalf("Certifies = %d, ProofSigns = %d; want 4, 0", s.Certifies, s.ProofSigns)
	}
}

// TestBatchedCertifyTickFlushesPartial: a partial run rides the next Tick
// instead of waiting for the batch to fill.
func TestBatchedCertifyTickFlushesPartial(t *testing.T) {
	f := newFixture(t, Config{CertBatch: 8})
	f.certify(t, 0, wcrypto.Digest([]byte("b0")))
	out := f.certify(t, 1, wcrypto.Digest([]byte("b1")))
	if batchOf(out) != nil {
		t.Fatal("partial run flushed early")
	}
	b := batchOf(f.node.Tick(2))
	if b == nil || b.Start != 0 || len(b.Digests) != 2 {
		t.Fatalf("tick flush batch = %+v", b)
	}
}

// TestBatchedCertifyDuplicateFallsBackToProof: a duplicate certify in
// batched mode is answered with an individually signed proof — the
// single-cert shape every verifier still accepts.
func TestBatchedCertifyDuplicateFallsBackToProof(t *testing.T) {
	f := newFixture(t, Config{CertBatch: 2})
	d := wcrypto.Digest([]byte("b0"))
	f.certify(t, 0, d)
	out := f.certify(t, 0, d)
	if len(out) != 1 {
		t.Fatalf("duplicate outputs = %d", len(out))
	}
	p, ok := out[0].Msg.(*wire.BlockProof)
	if !ok {
		t.Fatalf("duplicate answered with %T", out[0].Msg)
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", p, p.CloudSig); err != nil {
		t.Fatalf("lazily signed proof: %v", err)
	}
	if s := f.node.Stats(); s.ProofSigns != 1 {
		t.Fatalf("ProofSigns = %d, want 1 (lazy sign on duplicate)", s.ProofSigns)
	}
}

// TestCertifyBatchIngress: an inbound BlockCertifyBatch certifies every
// covered block under one edge signature, and equivocation inside a
// batch still convicts.
func TestCertifyBatchIngress(t *testing.T) {
	f := newFixture(t, Config{CertBatch: 4})
	m := &wire.BlockCertifyBatch{Edge: "edge-1", Start: 0}
	for i := 0; i < 4; i++ {
		m.Digests = append(m.Digests, wcrypto.Digest([]byte{byte(i)}))
	}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	b := batchOf(out)
	if b == nil || len(b.Digests) != 4 {
		t.Fatalf("ingress batch output = %v", out)
	}
	if s := f.node.Stats(); s.Certifies != 4 {
		t.Fatalf("Certifies = %d, want 4", s.Certifies)
	}

	// A conflicting digest for a covered bid is equivocation, same as
	// with single certifies.
	out = f.certify(t, 2, wcrypto.Digest([]byte("other")))
	v, ok := out[0].Msg.(*wire.Verdict)
	if !ok || !v.Guilty {
		t.Fatalf("conflict inside batched run: %+v", out[0].Msg)
	}
}

// TestCertifyBatchBadSignatureRejected: a forged batch certifies nothing.
func TestCertifyBatchBadSignatureRejected(t *testing.T) {
	f := newFixture(t, Config{CertBatch: 4})
	m := &wire.BlockCertifyBatch{Edge: "edge-1", Start: 0, Digests: [][]byte{wcrypto.Digest([]byte("x"))}}
	m.EdgeSig = wcrypto.SignMsg(f.keys["c1"], m) // wrong signer
	if out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m}); out != nil {
		t.Fatalf("forged batch produced output: %v", out)
	}
	if s := f.node.Stats(); s.Certifies != 0 {
		t.Fatalf("forged batch certified %d blocks", s.Certifies)
	}
}

// TestCertifyAnsweredInSameTurn: certification runs on the node's own
// turn, so the certificate is among the outputs of the Receive that
// carried the certify — pre-verified or checked inline, single or batch.
// CertWorkers is set to show that nothing reads it.
func TestCertifyAnsweredInSameTurn(t *testing.T) {
	f := newFixture(t, Config{CertWorkers: 2})
	for bid, verified := range []bool{true, false} {
		m := &wire.BlockCertify{Edge: "edge-1", BID: uint64(bid), Digest: wcrypto.Digest([]byte{byte(bid)})}
		m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
		out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m, Verified: verified})
		if len(out) != 1 {
			t.Fatalf("verified=%v: %d outputs, want the proof", verified, len(out))
		}
		if p, ok := out[0].Msg.(*wire.BlockProof); !ok || p.BID != uint64(bid) {
			t.Fatalf("verified=%v: output %T %+v, want the proof for block %d", verified, out[0].Msg, out[0].Msg, bid)
		}
	}

	fb := newFixture(t, Config{CertWorkers: 2, CertBatch: 4})
	m := &wire.BlockCertifyBatch{Edge: "edge-1", Start: 0}
	for i := 0; i < 4; i++ {
		m.Digests = append(m.Digests, wcrypto.Digest([]byte{byte(i)}))
	}
	m.EdgeSig = wcrypto.SignMsg(fb.keys["edge-1"], m)
	out := fb.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m, Verified: true})
	if b := batchOf(out); b == nil || b.Start != 0 || len(b.Digests) != 4 {
		t.Fatalf("batch that fills a run: outputs %v, want one BlockCertBatch of 4", out)
	}
}
