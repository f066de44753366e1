package integration

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// A write that leaves its block unfilled reaches Phase I on its run ack,
// before the block is cut, and Phase II once the block that holds it at
// the promised position is certified. No signature check is made on the
// block ack of a run-acked write: its writer holds the block for its
// digest only.
func TestRunAckedWriteReachesBothPhases(t *testing.T) {
	w := newWorld(t, worldOpts{flush: 100 * ms, proofTO: 2 * s})
	op1 := w.add(w.c1, "m0")
	w.settle(t, 50*ms)
	if op1.Phase != core.PhaseI || w.edge.LogBlocks() != 0 || w.edge.Stats().RunAcks != 1 {
		t.Fatalf("before the cut: phase %v, blocks %d, run acks %d; want phase-I on the run ack alone",
			op1.Phase, w.edge.LogBlocks(), w.edge.Stats().RunAcks)
	}
	op2 := w.add(w.c2, "m1")
	w.settle(t, 2*s)
	for i, op := range []*client.Op{op1, op2} {
		if op.Phase != core.PhaseII || op.Err != nil || op.BID != 0 {
			t.Fatalf("op%d: phase %v, err %v, block %d; want phase-II in block 0", i+1, op.Phase, op.Err, op.BID)
		}
	}
	if w.edge.Stats().RunAcks != 1 {
		t.Fatalf("run acks = %d, want 1: the filling write is acked by its block", w.edge.Stats().RunAcks)
	}
	if st := w.c1.Stats(); st.VerifyFailures != 0 || st.Disputes != 0 {
		t.Fatalf("honest run: %+v", st)
	}
}

// The first new lie: a run ack promises a position, and the block the
// edge cuts and signs holds the write elsewhere. The writer files both
// signed statements and the edge is convicted.
func TestBlockContradictingRunConvicts(t *testing.T) {
	w := newWorld(t, worldOpts{flush: 100 * ms, fault: &edge.Fault{MisplaceRuns: true}})
	op := w.add(w.c1, "victim")
	w.settle(t, 50*ms)
	if op.Phase != core.PhaseI {
		t.Fatalf("the misplaced run did not verify: phase %v, err %v", op.Phase, op.Err)
	}
	w.add(w.c2, "filler")
	w.settle(t, 2*s)
	if !errors.Is(op.Err, client.ErrEdgeLied) || op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("op err %v, verdict %+v; want a guilty verdict", op.Err, op.Verdict)
	}
	if !strings.Contains(op.Verdict.Reason, "contradicts run promise") {
		t.Fatalf("verdict reason %q", op.Verdict.Reason)
	}
	if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
		t.Fatal("cloud did not punish the edge")
	}
}

// trickle writes from both clients every 10 ms for a second into 100-entry
// blocks, in a world whose idle flush (20 ms) never fires while it lasts:
// only the run-cut deadline, ten flush periods after a block's first run
// ack, cuts the blocks, well inside the 500 ms proof timeout.
func trickle(t *testing.T, fault *edge.Fault) (*world, []*client.Op) {
	t.Helper()
	w := newWorld(t, worldOpts{batch: 100, flush: 20 * ms, proofTO: 500 * ms, fault: fault})
	var ops []*client.Op
	for i := range 100 {
		ops = append(ops, w.add([]*client.Core{w.c1, w.c2}[i%2], fmt.Sprintf("t%d", i)))
		w.sim.RunUntil(w.sim.Now() + 10*ms)
	}
	w.sim.RunUntil(w.sim.Now() + 2*s)
	return w, ops
}

// An honest edge under a trickle that never fills a block within a proof
// timeout: every run-acked write reaches Phase II, no one disputes, and
// the blocks are cut by the run's deadline, not when they fill.
func TestTrickledRunsReachPhaseII(t *testing.T) {
	w, ops := trickle(t, nil)
	for i, op := range ops {
		if op.Phase != core.PhaseII || op.Err != nil {
			t.Fatalf("op %d: phase %v, err %v; want phase-II", i, op.Phase, op.Err)
		}
	}
	if st := w.edge.Stats(); st.RunAcks < 90 || st.BlocksCut < 4 {
		t.Fatalf("%d run acks, %d blocks; want nearly every write run-acked and blocks cut by the deadline", st.RunAcks, st.BlocksCut)
	}
	for _, c := range []*client.Core{w.c1, w.c2} {
		if st := c.Stats(); st.Disputes != 0 {
			t.Fatalf("honest trickle: %+v", st)
		}
	}
	if _, flagged := w.cloud.Flagged("edge-1"); flagged {
		t.Fatal("honest edge convicted")
	}
}

// The second new lie: a run promise whose block is never certified. The
// trickle's blocks are cut and their block acks reach the writers, so each
// writer files the block it holds; the Judge finds no certificate for it
// at the proof timeout and convicts.
func TestUncertifiedRunConvictsAtProofTimeout(t *testing.T) {
	w, ops := trickle(t, &edge.Fault{DropCertify: true})
	op := ops[0]
	if !errors.Is(op.Err, client.ErrEdgeLied) || op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("op err %v, verdict %+v; want a guilty verdict", op.Err, op.Verdict)
	}
	if !strings.Contains(op.Verdict.Reason, "promised but never certified") {
		t.Fatalf("verdict reason %q", op.Verdict.Reason)
	}
	if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
		t.Fatal("cloud did not punish the edge")
	}
}

// The same lie with only the run in the writer's hands: the block ack of
// the run's block is lost on the way, so the writer files the run ack
// alone, and the Judge convicts on the missing certificate.
func TestUncertifiedRunAloneConvicts(t *testing.T) {
	net := faultnet.New(1)
	w := newWorld(t, worldOpts{flush: 20 * ms, net: net, fault: &edge.Fault{DropCertify: true}})
	op := w.add(w.c1, "m0")
	w.sim.RunUntil(w.sim.Now() + 5*ms)
	if op.Phase != core.PhaseI || w.edge.LogBlocks() != 0 {
		t.Fatalf("phase %v with %d blocks cut; want the run ack alone", op.Phase, w.edge.LogBlocks())
	}
	net.Add(faultnet.Rule{From: "edge-1", To: "c1", FromT: w.sim.Now(), ToT: w.sim.Now() + 10*s, Faults: faultnet.LinkFaults{Drop: 1}})
	w.sim.RunUntil(w.sim.Now() + 2*s)
	if w.edge.LogBlocks() != 1 {
		t.Fatalf("the edge cut %d blocks, want the run's", w.edge.LogBlocks())
	}
	if !errors.Is(op.Err, client.ErrEdgeLied) || op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("op err %v, verdict %+v; want a guilty verdict", op.Err, op.Verdict)
	}
	if !strings.Contains(op.Verdict.Reason, "promised by a run ack but never certified") {
		t.Fatalf("verdict reason %q", op.Verdict.Reason)
	}
}

// A leader that dies after a run ack left, before the run's block was cut:
// its followers mirrored the run in the release that carried the ack, the
// promoted one cuts it at the promised position, and the write reaches
// Phase II with no one convicted.
func TestPromotedFollowerCutsMirroredRun(t *testing.T) {
	var promise *wire.PutResponse
	w := newRWorld(t, rworldOpts{tap: func(h core.Handler, env wire.Envelope) {
		if r, ok := env.Msg.(*wire.PutResponse); ok && r.Run && env.To == "c1" {
			promise = r
		}
	}})
	warm1, warm2 := w.add(w.c1, "w0"), w.add(w.c2, "w1")
	w.settle(t, 1*s)
	if warm1.Phase != core.PhaseII || warm2.Phase != core.PhaseII {
		t.Fatalf("warmup phases %v / %v", warm1.Phase, warm2.Phase)
	}
	promise = nil
	op := w.add(w.c1, "m0")
	w.settle(t, 20*ms)
	if op.Phase != core.PhaseI || promise == nil {
		t.Fatalf("the write was not run-acked: phase %v", op.Phase)
	}
	w.on("edge-1", w.leader.Kill)
	w.settle(t, 4*s)

	next := w.promoted(t)
	if next.ID() == "edge-1" {
		t.Fatal("the chain did not fail over")
	}
	if op.Phase != core.PhaseII || op.Err != nil || op.BID != promise.BID {
		t.Fatalf("op: phase %v, err %v, block %d; want phase-II in promised block %d", op.Phase, op.Err, op.BID, promise.BID)
	}
	var blk *wire.Block
	var err error
	w.on(next.ID(), func() { blk, err = next.Log().Block(promise.BID) })
	if err != nil {
		t.Fatal(err)
	}
	at := promise.Block.StartPos - blk.StartPos
	if promise.Block.StartPos < blk.StartPos || at >= uint64(len(blk.Entries)) || !blk.Entries[at].Equal(&promise.Block.Entries[0]) {
		t.Fatalf("block %d at %d does not hold the run at its promised position %d", blk.ID, blk.StartPos, promise.Block.StartPos)
	}
	if got := next.Stats().Writes; got != 0 {
		t.Fatalf("the promoted replica appended %d writes; the run must come from its mirror", got)
	}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
		if _, flagged := w.cloud.Flagged(id); flagged {
			t.Fatalf("%s convicted", id)
		}
	}
}
