package integration

import (
	"fmt"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// Certified catch-up, end to end: nodes that fell off the chain — a
// crashed-and-restarted follower, a demoted ex-leader that served through
// a partition — ask the cloud for the certified frontier, fetch the
// missing frozen blocks from the current leader, verify every block
// against its cloud certificate, and rejoin as promotable followers. The
// cluster heals instead of wedging.

// A follower that crashes, loses its in-memory mirror, and restarts blank
// catches the chain back up through certified catch-up — and is then a
// first-class promotion candidate when the leader dies.
// The catch-up runs with the leader's blocks in its L0 window and, again,
// released below its compaction frontier.
func TestCatchUpRestartedFollower(t *testing.T) {
	for _, tc := range l0Cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newRWorld(t, rworldOpts{l0Thresh: tc.l0Thresh})

			// Block 0 commits, certifies, and is mirrored by both followers.
			op0 := w.add(w.c1, "m0")
			op1 := w.add(w.c2, "m1")
			w.settle(t, 1*s)
			if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
				t.Fatalf("warmup phases = %v / %v (err=%v / %v)", op0.Phase, op1.Phase, op0.Err, op1.Err)
			}

			// r1 crashes; block 1 commits without it.
			w.r1.Kill()
			w.add(w.c1, "m2")
			w.add(w.c2, "m3")
			w.settle(t, 1*s)
			if got := w.leader.LogBlocks(); got != 2 {
				t.Fatalf("leader blocks = %d, want 2", got)
			}
			// In the released case the leader serves the catch-up from blocks it
			// keeps only as canonical bytes.
			requireReleased(t, w.leader, tc.l0Thresh, 0)

			// r1 restarts blank: no log, no leader, epoch zero. Its heartbeats
			// report no view; the cloud answers with a signed view naming the
			// leader and certified catch-up refills the mirror.
			w.r1.Restart(w.sim.Now())
			if got := w.r1.LogBlocks(); got != 0 {
				t.Fatalf("restarted follower blocks = %d, want 0", got)
			}
			w.settle(t, 2*s)

			if got := w.r1.Leader(); got != "edge-1" {
				t.Fatalf("restarted follower leader = %q, want edge-1", got)
			}
			if got := w.r1.LogBlocks(); got != 2 {
				t.Fatalf("caught-up follower blocks = %d, want 2", got)
			}
			if got := w.r1.CertifiedBlocks(); got != 2 {
				t.Fatalf("caught-up follower certified = %d, want 2", got)
			}
			if got := w.r1.Stats().CatchUps; got == 0 {
				t.Fatal("restarted follower never requested catch-up")
			}
			if _, banned := w.cloud.Flagged("edge-1"); banned {
				t.Fatal("honest leader convicted during catch-up")
			}
			if _, banned := w.cloud.Flagged("edge-1.r1"); banned {
				t.Fatal("restarted follower convicted during catch-up")
			}

			// The rejoined follower is promotable: kill the leader and the cloud
			// picks r1 (full certified prefix, first in order) as the new leader.
			w.leader.Kill()
			w.settle(t, 2*s)
			if got := w.cloud.ChainLeader("edge-1"); got != "edge-1.r1" {
				t.Fatalf("chain leader = %q, want edge-1.r1", got)
			}
			if w.r1.IsFollower() {
				t.Fatal("promoted restarted follower still in follower mode")
			}

			// …and serves: a fresh write certifies, the pre-crash history reads
			// back Phase II.
			op4 := w.add(w.c1, "m4")
			op5 := w.add(w.c2, "m5")
			r := w.read(w.c2, 1)
			w.settle(t, 2*s)
			if op4.Phase != core.PhaseII || op5.Phase != core.PhaseII {
				t.Fatalf("post-promotion phases = %v / %v (err=%v / %v)", op4.Phase, op5.Phase, op4.Err, op5.Err)
			}
			if r.Phase != core.PhaseII || r.Err != nil {
				t.Fatalf("catch-up-history read phase = %v err = %v", r.Phase, r.Err)
			}
			if r.Block == nil || len(r.Block.Entries) != 2 {
				t.Fatalf("catch-up-history block = %+v", r.Block)
			}
		})
	}
}

// A blank follower that misses more history than one catch-up run holds
// drains it run after run: each time its mirror reaches the end of the run
// it asked for while the frames' Through says the leader holds more, it
// asks for the next run at once instead of waiting for its catch-up timer.
// Three runs of certified blocks land within one catch-up period (500 ms)
// of the first request, one request per run.
func TestCatchUpSpansRuns(t *testing.T) {
	const blocks = 40 // three runs of at most 16
	w := newRWorld(t, rworldOpts{})
	for i := 0; i < blocks; i++ {
		w.add(w.c1, fmt.Sprintf("a%d", i))
		w.add(w.c2, fmt.Sprintf("b%d", i))
		w.settle(t, 10*ms)
	}
	w.settle(t, 1*s)
	if got := w.leader.CertifiedBlocks(); got != blocks {
		t.Fatalf("leader certified %d blocks, want %d", got, blocks)
	}

	w.r1.Restart(w.sim.Now())
	if !w.sim.RunWhile(func() bool { return w.r1.Stats().CatchUps == 0 }, w.sim.Now()+2*s) {
		t.Fatal("restarted follower never asked to catch up")
	}
	first := w.sim.Now()
	caughtUp := func() bool { return w.r1.CertifiedBlocks() == blocks }
	if !w.sim.RunWhile(func() bool { return !caughtUp() }, first+500*ms) {
		t.Fatalf("after one catch-up period: %d blocks mirrored, %d certified, want %d",
			w.r1.LogBlocks(), w.r1.CertifiedBlocks(), blocks)
	}
	if got := w.r1.LogBlocks(); got != blocks {
		t.Fatalf("mirrored %d blocks, want %d", got, blocks)
	}
	if got := w.r1.Stats().CatchUps; got != 3 {
		t.Fatalf("%d catch-up requests for three runs", got)
	}
}

// A leader partitioned from the cloud keeps acking Phase I but cannot
// certify; the lease expires and a follower is promoted. When the
// partition heals, the ex-leader must not wedge: it learns of its
// demotion, truncates its divergent uncertified tail, catches up through
// certified blocks, and rejoins as a promotable follower.
func TestCatchUpDemotedExLeader(t *testing.T) {
	fn := faultnet.New(7)
	w := newRWorld(t, rworldOpts{fault: fn})

	// Block 0 certifies under the original leader.
	op0 := w.add(w.c1, "m0")
	op1 := w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v (err=%v / %v)", op0.Phase, op1.Phase, op0.Err, op1.Err)
	}

	// Partition the leader from the cloud (followers and clients still
	// reach it). Writes stick at Phase I; heartbeats stop arriving; the
	// lease expires and r1 is promoted.
	fn.Partition("edge-1", "cloud", 0, 0)
	op2 := w.add(w.c1, "m2")
	op3 := w.add(w.c2, "m3")
	w.settle(t, 2*s)

	if got := w.cloud.ChainLeader("edge-1"); got != "edge-1.r1" {
		t.Fatalf("chain leader = %q, want edge-1.r1", got)
	}
	// The clients rebound and re-sent; the promoted replica completed the
	// stuck writes and Phase II resumed.
	if op2.Phase != core.PhaseII || op3.Phase != core.PhaseII {
		t.Fatalf("partition-window phases = %v / %v (err=%v / %v)", op2.Phase, op3.Phase, op2.Err, op3.Err)
	}

	// More history accrues under the new leader while the ex-leader is
	// still cut off.
	op4 := w.add(w.c1, "m4")
	op5 := w.add(w.c2, "m5")
	w.settle(t, 1*s)
	if op4.Phase != core.PhaseII || op5.Phase != core.PhaseII {
		t.Fatalf("new-leader phases = %v / %v (err=%v / %v)", op4.Phase, op5.Phase, op4.Err, op5.Err)
	}

	// Heal. The ex-leader's heartbeats reach the cloud again; it is
	// re-admitted, told of the transfer, truncates whatever uncertified
	// tail it still holds, and mirrors the chain back to the frontier.
	fn.Heal("edge-1")
	w.settle(t, 3*s)

	if !w.leader.IsFollower() {
		t.Fatal("healed ex-leader did not demote")
	}
	if got := w.leader.Leader(); got != "edge-1.r1" {
		t.Fatalf("ex-leader recognizes leader %q, want edge-1.r1", got)
	}
	want := w.r1.LogBlocks()
	if got := w.leader.LogBlocks(); got != want {
		t.Fatalf("ex-leader blocks = %d, want %d", got, want)
	}
	if got := w.leader.CertifiedBlocks(); got != want {
		t.Fatalf("ex-leader certified = %d, want %d", got, want)
	}
	if got := w.cloud.Stats().Rejoins; got == 0 {
		t.Fatal("cloud never re-admitted the ex-leader")
	}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
		if _, banned := w.cloud.Flagged(id); banned {
			t.Fatalf("honest node %s convicted during rejoin", id)
		}
	}

	// The rejoined ex-leader is promotable again: kill both surviving
	// replicas and leadership walks back to it (possibly via a transfer to
	// the dead r2 that a second lease expiry corrects).
	w.r2.Kill()
	w.r1.Kill()
	w.settle(t, 3*s)
	if got := w.cloud.ChainLeader("edge-1"); got != "edge-1" {
		t.Fatalf("chain leader = %q, want edge-1 (re-promoted)", got)
	}
	if w.leader.IsFollower() {
		t.Fatal("re-promoted ex-leader still in follower mode")
	}

	op6 := w.add(w.c1, "m6")
	r := w.read(w.c1, 1)
	w.settle(t, 3*s)
	if op6.Phase != core.PhaseII || op6.Err != nil {
		t.Fatalf("re-promoted write phase = %v err = %v", op6.Phase, op6.Err)
	}
	if r.Phase != core.PhaseII || r.Err != nil {
		t.Fatalf("re-promoted history read phase = %v err = %v", r.Phase, r.Err)
	}
}

// A lying sync peer convicts like any edge: the leader serves catch-up
// blocks whose content contradicts the cloud certificates riding in the
// same response. The rejoining follower verifies before installing,
// files the leader's own transfer signature as evidence, and the cloud
// bans the liar and transfers leadership — after which catch-up resumes
// against the honest successor and the cluster still heals.
func TestCatchUpLyingSyncPeerConvicted(t *testing.T) {
	w := newRWorld(t, rworldOpts{leaderFault: &edge.Fault{TamperCatchUp: true}})

	// The fault only bites the catch-up serving path, so normal
	// replication certifies two blocks cleanly first.
	op0 := w.add(w.c1, "m0")
	op1 := w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v (err=%v / %v)", op0.Phase, op1.Phase, op0.Err, op1.Err)
	}

	// r1 crashes, misses a block, restarts blank, and asks the leader for
	// history. Every shipped block is tampered; the certificate shipped
	// alongside block 0 contradicts the content, so r1 convicts the
	// serving peer instead of poisoning its mirror.
	w.r1.Kill()
	w.add(w.c1, "m2")
	w.add(w.c2, "m3")
	w.settle(t, 1*s)
	w.r1.Restart(w.sim.Now())
	w.settle(t, 3*s)

	if _, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("lying sync peer was not convicted")
	}
	for _, id := range []wire.NodeID{"edge-1.r1", "edge-1.r2"} {
		if _, b := w.cloud.Flagged(id); b {
			t.Fatalf("honest node %s convicted", id)
		}
	}
	// Conviction forces a transfer to the honest follower with the longest
	// certified prefix (r2 mirrored everything; r1 restarted blank).
	if got := w.cloud.ChainLeader("edge-1"); got != "edge-1.r2" {
		t.Fatalf("chain leader = %q, want edge-1.r2", got)
	}
	// r1 finishes catch-up against the honest successor and the tampered
	// blocks never took: its mirror matches the new leader's.
	if got, want := w.r1.LogBlocks(), w.r2.LogBlocks(); got != want {
		t.Fatalf("r1 blocks = %d, want %d", got, want)
	}
	if got, want := w.r1.CertifiedBlocks(), w.r2.CertifiedBlocks(); got != want {
		t.Fatalf("r1 certified = %d, want %d", got, want)
	}

	// The healed group still serves: a fresh write certifies end to end.
	op4 := w.add(w.c1, "m4")
	w.settle(t, 2*s)
	if op4.Phase != core.PhaseII {
		t.Fatalf("post-conviction write phase = %v (err=%v)", op4.Phase, op4.Err)
	}
}
