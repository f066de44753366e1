package cloud

import (
	"bytes"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Certification-at-scale tests: the certify-latency histogram, same-turn
// certification and the verdict cache.

// TestCertifyHistogramObservesBothPaths: the certify-latency histogram
// records a sample for a certify the cloud signs and for one it drops on
// a bad MAC.
func TestCertifyHistogramObservesBothPaths(t *testing.T) {
	f := newFixture(t, Config{}) // Metrics nil: private-registry fallback
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: wcrypto.Digest([]byte("b0"))}
	m.MAC = f.mac(t, "edge-1", m)
	if out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m}); len(out) != 1 {
		t.Fatalf("signed certify: %d outputs, want the proof", len(out))
	}
	if got := f.node.m.certify.Count(); got != 1 {
		t.Fatalf("certify histogram count after a signed certify = %d, want 1", got)
	}
	m2 := &wire.BlockCertify{Edge: "edge-1", BID: 1, Digest: wcrypto.Digest([]byte("b1"))}
	m2.MAC = f.mac(t, "edge-1", m2)
	m2.MAC[0] ^= 1
	if out := f.node.Receive(2, wire.Envelope{From: "edge-1", To: "cloud", Msg: m2}); len(out) != 0 {
		t.Fatalf("badly signed certify answered: %v", out)
	}
	if got := f.node.m.certify.Count(); got != 2 {
		t.Fatalf("certify histogram count after a badly signed certify = %d, want 2", got)
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

// TestCertifyAnsweredInSameTurn: certification runs on the node's own
// turn, so the certificate is among the outputs of the Receive that
// carried the certify, its MAC checked on that turn too.
// CertWorkers and CertBatch are set to show that nothing reads them.
func TestCertifyAnsweredInSameTurn(t *testing.T) {
	f := newFixture(t, Config{CertWorkers: 2, CertBatch: 4})
	for bid := uint64(0); bid < 2; bid++ {
		m := &wire.BlockCertify{Edge: "edge-1", BID: bid, Digest: wcrypto.Digest([]byte{byte(bid)})}
		m.MAC = f.mac(t, "edge-1", m)
		out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
		if len(out) != 1 {
			t.Fatalf("block %d: %d outputs, want the proof", bid, len(out))
		}
		if p, ok := out[0].Msg.(*wire.BlockProof); !ok || p.BID != bid {
			t.Fatalf("block %d: output %T %+v, want its proof", bid, out[0].Msg, out[0].Msg)
		}
	}
}
