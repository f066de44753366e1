package integration

import (
	"errors"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// TestGetServesPrunedWindow drives the honest sliced read end to end in
// the simulator: a deep uncompacted L0 window, gets and scans that only
// touch a few of its blocks, answers still correct and Phase II — and the
// edge demonstrably shipping the rows asked for instead of the blocks.
func TestGetServesPrunedWindow(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100}) // window never compacts
	model := w.preloadKeys(t, 12)                        // k00..k11 all stay in L0

	// Every key still resolves correctly through the sliced window.
	for k, v := range model {
		op := w.get(w.c1, k)
		w.settle(t, 2*s)
		if op.Err != nil || !op.Found || string(op.GotValue) != v {
			t.Fatalf("get %s through pruned window: %+v err=%v", k, op, op.Err)
		}
		if op.Phase != core.PhaseII {
			t.Fatalf("get %s phase = %v", k, op.Phase)
		}
	}
	// Absent key: verified absence through a window of bracketing pairs.
	op := w.get(w.c2, "zz-missing")
	w.settle(t, 2*s)
	if op.Err != nil || op.Found {
		t.Fatalf("absent key: %+v err=%v", op, op.Err)
	}

	// The serve path actually slices: a point get accounts for the whole
	// six-block window and ships one row of it.
	rows := func(window []wire.L0Slice) (n int) {
		for i := range window {
			n += len(window[i].Rows)
		}
		return n
	}
	start, end := wire.PointRange([]byte("k03"))
	resp, err := w.edge.AssembleScan(start, end, 999)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Proof.L0Pruned) < 6 {
		t.Fatalf("window not fully accounted: %d slices", len(resp.Proof.L0Pruned))
	}
	if n := rows(resp.Proof.L0Pruned); n != 1 {
		t.Fatalf("%d rows shipped for a point get", n)
	}

	// Scans over a sub-range ship that sub-range.
	sresp, err := w.edge.AssembleScan([]byte("k00"), []byte("k02"), 998)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows(sresp.Proof.L0Pruned); n != 2 {
		t.Fatalf("%d rows shipped for a two-key scan over a deep window", n)
	}
	sop := w.scan(w.c1, "k00", "k02", 0)
	w.settle(t, 2*s)
	if sop.Err != nil || len(sop.ScanKVs) != 2 {
		t.Fatalf("narrow scan over sliced window: kvs=%v err=%v", sop.ScanKVs, sop.Err)
	}
}

// convictGet runs one byzantine get scenario through the full simulator
// loop and asserts detection and punishment.
func convictGet(t *testing.T, fault *edge.Fault, key string, wantErr error) *client.Op {
	t.Helper()
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100, fault: fault})
	w.preloadKeys(t, 6)
	op := w.get(w.c1, key)
	w.settle(t, 3*s)
	if op.Err == nil || !errors.Is(op.Err, wantErr) {
		t.Fatalf("byzantine get settled with %v, want %v", op.Err, wantErr)
	}
	if reason, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("edge not convicted")
	} else {
		t.Logf("convicted: %s", reason)
	}
	if w.c1.Stats().LiesDetected == 0 {
		t.Fatal("lie not counted")
	}
	return op
}

// TestGetFalseExclusionConvicts: the edge hides the freshest version of
// the key behind an honest slice that stops short of it. The client's
// bracket check refutes the slice and the signed response convicts at the
// cloud.
func TestGetFalseExclusionConvicts(t *testing.T) {
	op := convictGet(t, &edge.Fault{SliceFalseExclude: []byte("k03")}, "k03", client.ErrBadResponse)
	if op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("verdict not attached to the disputing client's op: %+v", op.Verdict)
	}
}

// TestGetTamperedSummaryConvicts: the edge cuts the slice out of a
// doctored block so the key looks absent; the digest it folds to
// contradicts the certificate shipped with it.
func TestGetTamperedSummaryConvicts(t *testing.T) {
	convictGet(t, &edge.Fault{SliceTamperKey: []byte("k03")}, "k03", client.ErrBadResponse)
}

// TestScanFalseExclusionConvicts / TestScanTamperedSummaryConvicts: the
// same two lies on the scan path, over a range covering the hidden key.
func TestScanFalseExclusionConvicts(t *testing.T) {
	fault := &edge.Fault{SliceFalseExclude: []byte("k03")}
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100, fault: fault})
	w.preloadKeys(t, 6)
	op := w.scan(w.c1, "k01", "k05", 0)
	w.settle(t, 3*s)
	if op.Err == nil || !errors.Is(op.Err, client.ErrBadResponse) {
		t.Fatalf("scan over false exclusion settled with %v", op.Err)
	}
	if _, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("edge not convicted")
	}
}

func TestScanTamperedSummaryConvicts(t *testing.T) {
	fault := &edge.Fault{SliceTamperKey: []byte("k03")}
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100, fault: fault})
	w.preloadKeys(t, 6)
	op := w.scan(w.c1, "k01", "k05", 0)
	w.settle(t, 3*s)
	if op.Err == nil || !errors.Is(op.Err, client.ErrBadResponse) {
		t.Fatalf("scan over tampered summary settled with %v", op.Err)
	}
	if _, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("edge not convicted")
	}
}

// TestGetTamperedUncertifiedSummaryConvictsLazily: the doctored slice
// hides inside a not-yet-certified window position, so structural checks
// pass and the get parks in Phase I with the digest it folds to pinned;
// the cloud's certificate then contradicts the pin and the dispute
// convicts — lazy certification extended to sliced evidence.
func TestGetTamperedUncertifiedSummaryConvictsLazily(t *testing.T) {
	fault := &edge.Fault{SliceTamperKey: []byte("k01")}
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100, fault: fault})
	// Two puts cut one block; the get is injected in the same breath so
	// it reaches the edge before the certificate returns from the cloud.
	w.put(w.c1, "k01", "v01")
	w.put(w.c2, "k02", "v02")
	op := w.get(w.c1, "k01")
	w.settle(t, 3*s)
	if op.Err == nil || !errors.Is(op.Err, client.ErrEdgeLied) {
		t.Fatalf("lazily caught slice lie settled with %v, want ErrEdgeLied", op.Err)
	}
	if _, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("edge not convicted")
	}
	if op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("verdict not delivered: %+v", op.Verdict)
	}
}

// TestPrunedWindowPhaseI: an honest slice of an uncertified block parks
// the read in Phase I and completes Phase II when the proof arrives —
// slicing must not skip the lazy-certification dependency.
func TestPrunedWindowPhaseI(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100})
	w.put(w.c1, "k01", "v01")
	w.put(w.c2, "k02", "v02")
	// The get races the certificate; the fresh block does not hold "zz",
	// so its slice is a lone flank.
	op := w.get(w.c1, "zz")
	w.settle(t, 3*s)
	if op.Err != nil || op.Found {
		t.Fatalf("absent-key get over uncertified window: %+v err=%v", op, op.Err)
	}
	if op.Phase != core.PhaseII {
		t.Fatalf("Phase I dependency never resolved: phase=%v", op.Phase)
	}
}

// TestPrunedGetFullWindowAccounting cross-checks the evidence shrink the
// E1 experiment measures: with a deep window, the get response for an
// L0-miss key accounts for every window block, ships no row of any, and
// is smaller than the blocks it stands in for. A slice of a block the key
// misses still ships the hashes and keys of two flanking entries and
// their Merkle paths, so the shrink needs blocks of more than a few
// entries: 16 here, against E1's 100.
func TestPrunedGetFullWindowAccounting(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 16, l0Thresh: 100})
	w.preloadKeys(t, 96)
	start, end := wire.PointRange([]byte("zz-miss"))
	miss, err := w.edge.AssembleScan(start, end, 1)
	if err != nil {
		t.Fatal(err)
	}
	missBytes := wire.EncodedSize(wire.Envelope{From: "edge-1", To: "c1", Msg: miss})

	log := w.edge.Log()
	window, windowBytes := 0, 0
	for bid := w.edge.L0From(); bid < log.NumBlocks(); bid++ {
		blk, err := log.Block(bid)
		if err != nil {
			t.Fatal(err)
		}
		window++
		windowBytes += len(blk.Canonical())
	}
	for i := range miss.Proof.L0Pruned {
		if n := len(miss.Proof.L0Pruned[i].Rows); n != 0 {
			t.Fatalf("L0-miss get still ships %d rows of block %d", n, miss.Proof.L0Pruned[i].ID)
		}
	}
	if len(miss.Proof.L0Pruned) != window || window < 6 {
		t.Fatalf("%d slices for a %d-block window", len(miss.Proof.L0Pruned), window)
	}
	if missBytes >= windowBytes {
		t.Fatalf("sliced evidence (%d B) not smaller than the window's blocks (%d B)", missBytes, windowBytes)
	}
	t.Logf("evidence bytes: slices=%d window blocks=%d (%.1fx)", missBytes, windowBytes, float64(windowBytes)/float64(missBytes))
}

// TestHonestL0HitGetSurvivesDispute: after the first compaction an honest
// edge answers a get for a freshly written key with the uncompacted
// window alone (an L0 hit ships no index state), the window no longer
// starts at block 0, and the block holding the key is not certified yet.
// The client parks the get in Phase I; the edge's forwarded proof is then
// lost, the proof timeout fires and the client disputes. The Judge re-runs
// the client's window checks — including the client's L0-hit exemption
// from the frontier rule — finds the evidence matching the certified
// digest, and must not convict.
func TestHonestL0HitGetSurvivesDispute(t *testing.T) {
	net := faultnet.New(1)
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 2, net: net})
	w.preloadKeys(t, 12)
	if w.edge.Stats().Merges == 0 {
		t.Fatal("no merges happened; test parameters wrong")
	}

	// Two puts cut a block at the edge one hop from now; the get queued
	// behind them is served from that still-uncertified block. Its
	// response reaches c1 two hops from now; everything the edge sends c1
	// after that — the forwarded block proof above all — is lost.
	t0 := w.sim.Now()
	w.put(w.c2, "hot", "fresh")
	w.put(w.c2, "hot2", "fresh2")
	op := w.get(w.c1, "hot")
	net.Partition("edge-1", "c1", t0+2*ms+ms/2, t0+s)
	w.sim.RunUntil(t0 + s) // past the proof timeout: only ticks are pending meanwhile
	w.settle(t, 2*s)

	if w.c1.Stats().Disputes == 0 {
		t.Fatal("get never disputed; test parameters wrong")
	}
	start, end := wire.PointRange([]byte("hot"))
	if resp, err := w.edge.AssembleScan(start, end, 999); err != nil || len(resp.Proof.Roots) != 0 || resp.Proof.L0Pruned[0].ID == 0 {
		t.Fatalf("get is not an L0 hit past block 0: err %v, %d roots, window from block %d",
			err, len(resp.Proof.Roots), resp.Proof.L0Pruned[0].ID)
	}
	if reason, banned := w.cloud.Flagged("edge-1"); banned {
		t.Fatalf("honest edge convicted: %s", reason)
	}
	if op.Verdict == nil || op.Verdict.Guilty {
		t.Fatalf("verdict = %+v, want not guilty", op.Verdict)
	}
	if !op.Found || string(op.GotValue) != "fresh" {
		t.Fatalf("get answered %q found=%v", op.GotValue, op.Found)
	}
}
