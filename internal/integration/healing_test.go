package integration

import (
	"fmt"
	"strings"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/sim"
	"wedgechain/internal/wire"
)

// Healing runs on every leader, replicated or not: a stalled certified
// frontier re-submits certification, and a lost merge is re-sent on the
// evidence of a later proof or, with nothing left to certify, after an idle
// wait. A slow link is not a lost frame, and is not retried.

// TestUnreplicatedLeaderHealsDroppedCertify: an unreplicated leader whose
// link to the cloud drops everything for its first 400 ms loses its first
// certify. The stall retry re-submits it well inside the clients' proof
// timeout, so both adds reach Phase II and nobody is convicted.
func TestUnreplicatedLeaderHealsDroppedCertify(t *testing.T) {
	net := faultnet.New(1)
	net.Add(faultnet.Rule{From: "edge-1", To: "cloud", FromT: 0, ToT: 400 * ms, Faults: faultnet.LinkFaults{Drop: 1}})
	w := newWorld(t, worldOpts{proofTO: 2 * s, net: net})
	ops := []*client.Op{w.add(w.c1, "m0"), w.add(w.c2, "m1")}
	w.sim.RunUntil(w.sim.Now() + 4*s)

	if st := net.Snapshot(); st.Drops == 0 {
		t.Fatal("setup: no certify was dropped")
	}
	for i, op := range ops {
		if op.Err != nil || op.Phase != core.PhaseII {
			t.Fatalf("add %d: phase %v err %v", i, op.Phase, op.Err)
		}
	}
	if g := w.cloud.Stats().GuiltyEdges; g != 0 {
		t.Fatalf("honest leader convicted (%d guilty)", g)
	}
	if w.edge.Stats().CertRetries == 0 {
		t.Fatal("no stall retry ran")
	}
}

// TestUnreplicatedLeaderHealsLostMerge: an unreplicated leader loses its
// first merge request and then the response to its re-send, and nothing is
// written after the loss. With no cut block left to certify, no proof can
// show the loss, so the leader re-sends after the stall period and again
// after twice that: compaction resumes, and the cloud merges once per
// request the leader started.
func TestUnreplicatedLeaderHealsLostMerge(t *testing.T) {
	lossy := &lossyCloud{dropRequests: 1, dropResponses: 1}
	metrics := obs.NewRegistry()
	w := newWorld(t, worldOpts{metrics: metrics, wrapCloud: func(n *cloud.Node) core.Handler {
		lossy.Node = n
		return lossy
	}})
	for i := 0; i < 4; i++ {
		w.put(w.c1, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	w.sim.RunUntil(w.sim.Now() + 4*s)

	if lossy.dropRequests+lossy.dropResponses != 0 {
		t.Fatalf("setup: %d requests and %d responses left to drop", lossy.dropRequests, lossy.dropResponses)
	}
	if got := metrics.CounterValue("wedge_edge_merge_retries_total"); got != 2 {
		t.Fatalf("merge retries = %d, want 2", got)
	}
	if idx := w.edge.Index(); idx.Global().Epoch != 1 || w.edge.L0From() != 2 {
		t.Fatalf("merge not installed: epoch %d l0From %d", idx.Global().Epoch, w.edge.L0From())
	}
	// Compaction carries on over the healed link.
	for i := 4; i < 12; i++ {
		w.put(w.c1, fmt.Sprintf("k%d", i%6), fmt.Sprintf("v%d", i))
	}
	w.sim.RunUntil(w.sim.Now() + 2*s)
	st, started := w.cloud.Stats(), w.edge.Stats().Merges
	if st.Merges != started || started < 3 || st.MergeRejects != 0 || st.GuiltyEdges != 0 {
		t.Fatalf("cloud merged %d of %d requests (rejects %d, guilty %d)", st.Merges, started, st.MergeRejects, st.GuiltyEdges)
	}
}

// TestSlowMergeIsSentOnce: a merge request that needs longer than the
// stall period to cross a slow edge→cloud link, with later certifies
// queued behind it, is neither lost nor re-sent: its answer overtakes their
// proofs, and while they are outstanding the idle wait does not run.
func TestSlowMergeIsSentOnce(t *testing.T) {
	metrics := obs.NewRegistry()
	w := newRWorld(t, rworldOpts{
		l0Thresh: 2,
		metrics:  metrics,
		// The leader's heartbeats and certifies queue behind the merge:
		// the lease, and the stall bound of three leases, outlast its
		// crossing.
		lease: 5 * s,
		links: map[[2]wire.NodeID]sim.Link{
			{"edge-1", "cloud"}: {Latency: 1 * ms, Bandwidth: 50e3},
		},
	})
	big := strings.Repeat("x", 20e3)
	for i := 0; i < 4; i++ {
		w.put(w.c1, fmt.Sprintf("k%d", i), big)
	}
	w.settle(t, 300*ms)
	if w.leader.Stats().Merges != 1 || w.cloud.Stats().Merges != 0 {
		t.Fatalf("setup: leader started %d merges, cloud merged %d; want the first in transit",
			w.leader.Stats().Merges, w.cloud.Stats().Merges)
	}
	// Small writes whose certifies leave behind the merge request.
	for i := 4; i < 8; i++ {
		w.put(w.c1, fmt.Sprintf("k%d", i), "v")
	}
	w.settle(t, 5*s)

	if got := metrics.CounterValue("wedge_edge_merge_retries_total"); got != 0 {
		t.Fatalf("merge retries = %d, want 0", got)
	}
	st := w.cloud.Stats()
	if st.Merges != w.leader.Stats().Merges || st.Merges < 2 || st.Transfers != 0 || st.GuiltyEdges != 0 {
		t.Fatalf("cloud merged %d of %d requests (transfers %d, guilty %d)", st.Merges, w.leader.Stats().Merges, st.Transfers, st.GuiltyEdges)
	}
	if n := w.leader.Log().NumBlocks(); w.leader.Log().CertifiedBlocks() != n || n != 4 {
		t.Fatalf("%d of %d blocks certified", w.leader.Log().CertifiedBlocks(), n)
	}
}
