package client

import (
	"errors"
	"fmt"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// A client checks an edge's signature on a read only where it needs the
// response as evidence. These tests count the checks on the session's
// registry: a check that runs Ed25519 and passes is a memo miss, one that
// fails a bad signature.

// sigCounter attaches metrics to f's registry and returns the number of
// Ed25519 checks it has run since, passed or failed.
func sigCounter(f *fixture) func() uint64 {
	o := obs.NewRegistry()
	f.reg.AttachMetrics(o, "c1")
	return func() uint64 {
		return o.CounterValue("wedge_wcrypto_verify_memo_misses_total") + o.CounterValue("wedge_wcrypto_bad_signatures_total")
	}
}

// warm verifies every cloud signature m carries, so that a later count
// sees only the edge's.
func warm(t *testing.T, f *fixture, m *wire.ScanResponse) {
	t.Helper()
	if _, err := scan.Verify(f.c.readParams(20), m); err != nil {
		t.Fatalf("warm-up verification: %v", err)
	}
}

// corrupt flips one bit of m's edge signature.
func corrupt(m *wire.ScanResponse) *wire.ScanResponse {
	m.EdgeSig[0] ^= 1
	return m
}

// TestCertifiedReadRunsNoEdgeCheck: a get whose window is certified and a
// scan over levels under the signed global root settle Phase II with the
// right rows without checking the edge's signature — so one with a bad
// signature is accepted too.
func TestCertifiedReadRunsNoEdgeCheck(t *testing.T) {
	for _, bad := range []bool{false, true} {
		f := newFixture(t)
		checks := sigCounter(f)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("other"))
		resp := getOver(f, envs[0].Msg.(*wire.ScanRequest), blocks, certs, nil)
		warm(t, f, resp)
		if bad {
			corrupt(resp)
		}
		before := checks()
		deliverGet(t, f, false, resp)
		if n := checks() - before; n != 0 {
			t.Fatalf("bad=%v: certified get ran %d edge checks, want 0", bad, n)
		}
		if op.Phase != core.PhaseII || op.Err != nil || !op.Found || string(op.GotValue) != "vother" {
			t.Fatalf("bad=%v: certified get: phase %v err %v found %v value %q", bad, op.Phase, op.Err, op.Found, op.GotValue)
		}

		sf := newScanFixture(t)
		checks = sigCounter(sf.fixture)
		sop, req := sf.launchScan(t, []byte("k02"), []byte("k06"))
		sresp := sf.honestScanResponse(req)
		warm(t, sf.fixture, sresp)
		if bad {
			corrupt(sresp)
		}
		before = checks()
		sf.deliver(t, false, sresp)
		if n := checks() - before; n != 0 {
			t.Fatalf("bad=%v: certified scan ran %d edge checks, want 0", bad, n)
		}
		if sop.Phase != core.PhaseII || sop.Err != nil || len(sop.ScanKVs) != 4 ||
			string(sop.ScanKVs[0].Key) != "k02" || string(sop.ScanKVs[3].Key) != "k05" {
			t.Fatalf("bad=%v: certified scan: phase %v err %v rows %d", bad, sop.Phase, sop.Err, len(sop.ScanKVs))
		}
	}
}

// TestStaleUnsignedCertifiedRetried: a certified scan outside the
// freshness window is asked again at once, with no signature on it or a
// bad one — a retry acts on nothing the edge vouched for — and nothing is
// counted as a verification failure.
func TestStaleUnsignedCertifiedRetried(t *testing.T) {
	for _, bad := range []bool{false, true} {
		sf := newScanFixture(t)
		checks := sigCounter(sf.fixture)
		op, req := sf.launchScan(t, []byte("k02"), []byte("k06"))
		resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{}, sf.idx)
		if bad {
			resp.EdgeSig = make([]byte, 64)
		}
		warm(t, sf.fixture, resp)
		sf.c.cfg.FreshnessWindow = 1 // the global root is signed at 5; it arrives at 20
		before := checks()
		outs := sf.deliver(t, false, resp)
		if n := checks() - before; n != 0 {
			t.Fatalf("bad=%v: stale certified scan ran %d edge checks, want 0", bad, n)
		}
		if len(outs) != 1 || outs[0].To != "edge-1" || outs[0].Msg.MsgKind() != wire.KindScanRequest {
			t.Fatalf("bad=%v: stale scan answered with %v, want one retry to the edge", bad, outs)
		}
		st := sf.c.Stats()
		if op.Done || st.Retries != 1 || st.StaleRejected != 1 || st.VerifyFailures != 0 {
			t.Fatalf("bad=%v: done %v, %d retries, %d stale, %d verify failures", bad, op.Done, st.Retries, st.StaleRejected, st.VerifyFailures)
		}
	}
}

// phaseIGet starts a get of "other" and returns it with the edge's answer
// over pruneBlocks' window with block 1 uncertified: its pinned digest is
// Phase I evidence.
func phaseIGet(f *fixture) (*Op, *wire.ScanResponse, *wire.Block) {
	blocks, certs := pruneBlocks(f)
	op, envs := f.c.Get(10, []byte("other"))
	return op, getOver(f, envs[0].Msg.(*wire.ScanRequest), blocks, certs[:1], nil), &blocks[1]
}

// TestPhaseIGetRunsOneEdgeCheck: a get that pins an uncertified block's
// digest checks the edge's signature once, and reaches Phase II when the
// block's proof arrives.
func TestPhaseIGetRunsOneEdgeCheck(t *testing.T) {
	f := newFixture(t)
	checks := sigCounter(f)
	op, resp, blk := phaseIGet(f)
	warm(t, f, resp)
	before := checks()
	deliverGet(t, f, false, resp)
	if n := checks() - before; n != 1 {
		t.Fatalf("Phase I get ran %d edge checks, want 1", n)
	}
	if op.Phase != core.PhaseI || op.Done {
		t.Fatalf("Phase I get: phase %v done %v", op.Phase, op.Done)
	}
	f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedProof(blk)})
	if op.Phase != core.PhaseII || op.Err != nil || string(op.GotValue) != "vother" {
		t.Fatalf("after proof: phase %v err %v value %q", op.Phase, op.Err, op.GotValue)
	}
}

// TestPhaseIGetBadEdgeSigNotAdmitted: a Phase I get whose signature fails
// is dropped — not admitted, not settled — and counted.
func TestPhaseIGetBadEdgeSigNotAdmitted(t *testing.T) {
	f := newFixture(t)
	op, resp, _ := phaseIGet(f)
	deliverGet(t, f, false, corrupt(resp))
	if op.Phase != core.PhaseNone || op.Done {
		t.Fatalf("forged Phase I get admitted: phase %v done %v", op.Phase, op.Done)
	}
	if f.c.Stats().VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", f.c.Stats().VerifyFailures)
	}
}

// TestDefectiveGetDisputedOnlyWhenSigned: a structurally defective get
// with a valid signature settles ErrBadResponse and files a scan-lie
// dispute the Judge convicts on; with a bad signature it is dropped and
// counted, and nothing is filed.
func TestDefectiveGetDisputedOnlyWhenSigned(t *testing.T) {
	for _, bad := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("hidden"))
		req := envs[0].Msg.(*wire.ScanRequest)
		resp := getOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
			return stopShort(w, &blocks[0], req.Start, "hidden")
		})
		if bad {
			corrupt(resp)
		}
		outs := deliverGet(t, f, false, resp)
		st := f.c.Stats()
		if bad {
			if op.Done || len(outs) != 0 || st.Disputes != 0 || st.VerifyFailures != 1 {
				t.Fatalf("forged defect: done %v, %d sent, %d disputes, %d verify failures; want dropped and counted",
					op.Done, len(outs), st.Disputes, st.VerifyFailures)
			}
			continue
		}
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) || len(outs) != 1 || st.Disputes != 1 {
			t.Fatalf("signed defect: done %v err %v, %d sent, %d disputes", op.Done, op.Err, len(outs), st.Disputes)
		}
		d, ok := outs[0].Msg.(*wire.Dispute)
		if !ok || d.Kind != wire.DisputeScanLie {
			t.Fatalf("wrong dispute: %+v", outs[0].Msg)
		}
		if v := judgeWith(f, d, &blocks[0], &blocks[1]); !v.Guilty {
			t.Fatalf("judge acquitted: %s", v.Reason)
		}
	}
}

// TestReadByBIDNeedsEdgeSigUnlessCertified: a denial and a Phase I read by
// BID act on the edge's word and drop with a bad signature; a Phase II
// read, whose block the cloud's proof binds, is accepted without one.
func TestReadByBIDNeedsEdgeSigUnlessCertified(t *testing.T) {
	for _, c := range []struct {
		name   string
		ok     bool
		proof  bool
		signed bool
		phase  core.Phase
		done   bool
	}{
		{"denial", false, false, true, core.PhaseNone, true},
		{"forged denial", false, false, false, core.PhaseNone, false},
		{"Phase I", true, false, true, core.PhaseI, false},
		{"forged Phase I", true, false, false, core.PhaseNone, false},
		{"forged Phase II", true, true, false, core.PhaseII, true},
	} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		blk := &blocks[0]
		op, _ := f.c.Read(10, blk.ID)
		m := &wire.ReadResponse{ReqID: op.ReqID, BID: blk.ID, OK: c.ok, Ts: 5}
		if c.ok {
			m.Block = *blk
		}
		if c.proof {
			m.HasProof, m.Proof = true, certs[0]
		}
		m.EdgeSig = wcrypto.SignReadResponse(f.keys["edge-1"], m, m.Block.BodyDigest())
		if !c.signed {
			m.EdgeSig[0] ^= 1
		}
		f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: m})
		if op.Phase != c.phase || op.Done != c.done {
			t.Fatalf("%s: phase %v done %v err %v, want phase %v done %v", c.name, op.Phase, op.Done, op.Err, c.phase, c.done)
		}
		wantFail := uint64(0)
		if !c.signed && !c.proof {
			wantFail = 1
		}
		if got := f.c.Stats().VerifyFailures; got != wantFail {
			t.Fatalf("%s: verify failures = %d, want %d", c.name, got, wantFail)
		}
	}
}

// windowBlocks is a window of n certified 100-entry blocks from client c2
// over keys key00000, key00001, …, with their certificates.
func windowBlocks(f *fixture, n int) ([]wire.Block, []wire.BlockProof) {
	var blocks []wire.Block
	var certs []wire.BlockProof
	for b := 0; b < n; b++ {
		blk := wire.Block{Edge: "edge-1", ID: uint64(b), StartPos: uint64(b * 100)}
		for i := 0; i < 100; i++ {
			k := b*100 + i
			blk.Entries = append(blk.Entries, wire.Entry{Client: "c2", Seq: uint64(k + 1),
				Key: []byte(fmt.Sprintf("key%05d", k)), Value: make([]byte, 100)})
		}
		blk.Freeze()
		cert := wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)
		blocks = append(blocks, blk)
		certs = append(certs, cert)
	}
	return blocks, certs
}

// benchGetResponse times one handleScanResponse per iteration: a get of a
// key in the oldest of four 100-entry blocks, each answered by a freshly
// signed response. With certified false the newest block is uncertified,
// so the client checks the edge's signature and pins the block's digest;
// its proof is delivered outside the timer.
func benchGetResponse(b *testing.B, certified bool) {
	f := newFixture(b)
	blocks, certs := windowBlocks(f, 4)
	served := certs
	if !certified {
		served = certs[:len(certs)-1]
	}
	src := mlsm.L0Source{Blocks: blocks, Certs: served}
	idx := mlsm.NewIndex([]int{10})
	proof := &certs[len(certs)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op, envs := f.c.Get(10, []byte("key00042"))
		req := envs[0].Msg.(*wire.ScanRequest)
		resp := scan.Assemble(req.Start, req.End, req.ReqID, src, idx)
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		b.StartTimer()
		f.c.handleScanResponse(20, "edge-1", resp)
		b.StopTimer()
		if !certified {
			f.c.handleProof(30, "edge-1", proof)
		}
		if op.Phase != core.PhaseII || !op.Found {
			b.Fatalf("get did not settle: phase %v err %v", op.Phase, op.Err)
		}
		b.StartTimer()
	}
}

// BenchmarkGetResponseCertified is a get whose every row is bound to a
// cloud signature: no edge-signature check.
func BenchmarkGetResponseCertified(b *testing.B) { benchGetResponse(b, true) }

// BenchmarkGetResponsePhaseI is the same get with the newest block
// uncertified: one edge-signature check. The gap to
// BenchmarkGetResponseCertified is that check.
func BenchmarkGetResponsePhaseI(b *testing.B) { benchGetResponse(b, false) }
