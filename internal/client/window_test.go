package client

import (
	"fmt"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// The four TestKeyRing* tests below keep their names from the client's own
// ring, now core.Window (whose model test is internal/core's
// TestWindowMatchesMapModel): they pin the behaviours the client's
// bySeq/byReq/byBID indexes lean on.

// TestKeyRingWrap is the ring-wrap regression test: keys are set and
// deleted in a sliding window far wider than the initial capacity, so
// the base chases through several wraparounds and at least one grow,
// and every lookup must stay exact.
func TestKeyRingWrap(t *testing.T) {
	var r core.Window[int]
	const span = 1000
	const window = 100 // wider than the initial ring: forces a grow
	for k := uint64(1); k <= span; k++ {
		r.Set(k, int(k)*3)
		if k > window {
			r.Delete(k - window)
		}
		// Spot-check the whole live window after each step.
		lo := uint64(1)
		if k > window {
			lo = k - window + 1
		}
		for q := lo; q <= k; q++ {
			v, ok := r.Get(q)
			if !ok || v != int(q)*3 {
				t.Fatalf("k=%d: get(%d) = (%d, %v)", k, q, v, ok)
			}
		}
		if _, ok := r.Get(lo - 1); ok && lo > 1 {
			t.Fatalf("k=%d: deleted key %d still present", k, lo-1)
		}
	}
	if r.Len() != window {
		t.Fatalf("live = %d, want %d", r.Len(), window)
	}
}

// TestKeyRingOutOfOrderDelete deletes from the middle first: the base
// must not advance past live keys, and must catch up once the prefix
// clears.
func TestKeyRingOutOfOrderDelete(t *testing.T) {
	var r core.Window[string]
	for k := uint64(10); k < 20; k++ {
		r.Set(k, fmt.Sprint(k))
	}
	for k := uint64(15); k < 20; k++ {
		r.Delete(k)
	}
	if v, ok := r.Get(10); !ok || v != "10" {
		t.Fatalf("leading key lost: %q %v", v, ok)
	}
	for k := uint64(10); k < 15; k++ {
		r.Delete(k)
	}
	if r.Len() != 0 {
		t.Fatalf("live = %d", r.Len())
	}
	// Window restarts cleanly far away.
	r.Set(1_000_000, "far")
	if v, ok := r.Get(1_000_000); !ok || v != "far" {
		t.Fatal("window restart failed")
	}
}

// TestKeyRingRebase covers the straggler path: after the window has
// advanced, a set at an older key must rebase backward instead of being
// dropped (a late-delivered read response pinning an old block id).
func TestKeyRingRebase(t *testing.T) {
	var r core.Window[int]
	for k := uint64(100); k < 140; k++ {
		r.Set(k, int(k))
	}
	for k := uint64(100); k < 120; k++ {
		r.Delete(k) // base advances to 120
	}
	r.Set(50, 555) // straggler far behind the base
	if v, ok := r.Get(50); !ok || v != 555 {
		t.Fatalf("straggler lost: %d %v", v, ok)
	}
	for k := uint64(120); k < 140; k++ {
		if v, ok := r.Get(k); !ok || v != int(k) {
			t.Fatalf("rebase corrupted key %d: %d %v", k, v, ok)
		}
	}
	seen := map[uint64]bool{}
	r.Each(func(k uint64, v int) { seen[k] = true })
	if len(seen) != 21 || !seen[50] || !seen[139] {
		t.Fatalf("each saw %d keys: %v", len(seen), seen)
	}
}

// TestKeyRingSpanBounded: one stuck low key plus ever-growing high keys
// must not strand either — far keys spill to the overflow map and stay
// fully functional (the model test bounds the ring's size).
func TestKeyRingSpanBounded(t *testing.T) {
	var r core.Window[int]
	r.Set(1, 111)           // stuck op: never deleted
	far := uint64(40 << 16) // far past the ring's span bound
	for k := far; k < far+100; k++ {
		r.Set(k, int(k))
	}
	if v, ok := r.Get(1); !ok || v != 111 {
		t.Fatal("stuck key lost")
	}
	for k := far; k < far+100; k++ {
		if v, ok := r.Get(k); !ok || v != int(k) {
			t.Fatalf("overflowed key %d lost: %d %v", k, v, ok)
		}
	}
	if r.Len() != 101 {
		t.Fatalf("live = %d", r.Len())
	}
	seen := 0
	r.Each(func(k uint64, v int) { seen++ })
	if seen != 101 {
		t.Fatalf("each visited %d", seen)
	}
	// Updates and deletes reach overflow entries; the stuck key too.
	r.Set(far, -1)
	if v, _ := r.Get(far); v != -1 {
		t.Fatal("overflow update lost")
	}
	for k := far; k < far+100; k++ {
		r.Delete(k)
	}
	r.Delete(1)
	if r.Len() != 0 {
		t.Fatalf("live = %d after deletes", r.Len())
	}
}

// TestByBIDReleasesResolvedDependency: a proof that resolves one of a
// read's pinned bids must release that bid's waiter slot even while the
// op still pends on other bids — otherwise the Done op would pin the
// byBID ring base forever.
func TestByBIDReleasesResolvedDependency(t *testing.T) {
	f := newFixture(t)
	mk := func(id uint64, key string) wire.Block {
		e := wire.Entry{Client: "c2", Seq: id + 1, Key: []byte(key), Value: []byte("v")}
		blk := wire.Block{Edge: "edge-1", ID: id, StartPos: id, Entries: []wire.Entry{e}}
		blk.Freeze()
		return blk
	}
	b0, b1 := mk(0, "k"), mk(1, "other")
	op, envs := f.c.Get(10, []byte("k"))
	req := envs[0].Msg.(*wire.GetRequest)
	resp := mlsm.AssembleGet(req.Key, req.ReqID,
		mlsm.L0Source{Blocks: []wire.Block{b0, b1}, Certs: []wire.BlockProof{{}, {}}},
		mlsm.NewIndex([]int{10}))
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if op.Phase != core.PhaseI || f.c.byBID.Len() != 2 {
		t.Fatalf("setup: phase=%v bids=%d", op.Phase, f.c.byBID.Len())
	}
	f.c.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&b0)})
	if op.Done {
		t.Fatal("op settled with a dependency outstanding")
	}
	if f.c.byBID.Len() != 1 {
		t.Fatalf("resolved bid still registered: %d live", f.c.byBID.Len())
	}
	f.c.Receive(40, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&b1)})
	if !op.Done || op.Err != nil || op.Phase != core.PhaseII {
		t.Fatalf("op did not settle: %+v", op)
	}
	if f.c.byBID.Len() != 0 {
		t.Fatalf("byBID not empty after settlement: %d", f.c.byBID.Len())
	}
}

// TestClientRingsSurviveDeepPipeline drives the real client through a
// window of operations far wider than the initial ring capacity — the
// end-to-end version of the wrap test: many puts acknowledged out of
// lockstep, each settled by its proof, with correctness asserted per op.
func TestClientRingsSurviveDeepPipeline(t *testing.T) {
	f := newFixture(t)
	const n = 300 // far wider than the initial ring
	type launched struct {
		op  *Op
		blk wire.Block
	}
	var ops []launched
	for i := 0; i < n; i++ {
		op, envs := f.c.Put(10, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		e := entryOf(t, envs)
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: uint64(i), Entries: []wire.Entry{e}}
		ops = append(ops, launched{op, blk})
	}
	// Acknowledge and certify in an interleaved pattern so the byBID and
	// bySeq windows wrap while earlier ops settle.
	for i := range ops {
		resp := &wire.PutResponse{BID: ops[i].blk.ID, Block: ops[i].blk}
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
		if ops[i].op.Phase != core.PhaseI {
			t.Fatalf("op %d not Phase I after ack", i)
		}
		if i >= 7 {
			j := i - 7
			f.c.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&ops[j].blk)})
			if ops[j].op.Phase != core.PhaseII || !ops[j].op.Done {
				t.Fatalf("op %d not settled by its proof", j)
			}
		}
	}
	for i := n - 7; i < n; i++ {
		f.c.Receive(40, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&ops[i].blk)})
	}
	for i, l := range ops {
		if !l.op.Done || l.op.Err != nil || l.op.Phase != core.PhaseII {
			t.Fatalf("op %d: %+v", i, l.op)
		}
	}
	if f.c.Pending() != 0 {
		t.Fatalf("pending = %d", f.c.Pending())
	}
}
