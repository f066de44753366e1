package integration

import (
	"testing"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/sim"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// rworld is a replicated-shard cluster: one cloud, a three-member replica
// group for chain "edge-1" (leader edge-1, followers edge-1.r1 and
// edge-1.r2), and two clients. It shares world's fields and operation
// helpers; world's edge is the initial leader. On TCP, world's sim is nil
// and every node is reached through host.
type rworld struct {
	world
	host   host
	leader *edge.Node
	r1, r2 *edge.Node
	reg    *wcrypto.Registry // the key registry every node checks against
}

type rworldOpts struct {
	leaderFault *edge.Fault
	r1Fault     *edge.Fault
	gossip      int64
	proofTO     int64
	lease       int64
	fault       *faultnet.Net               // chaos schedules applied to every frame
	tcp         bool                        // host the nodes on loopback TCP, not the simulator
	l0Thresh    int                         // L0 merge trigger (default 100: no compaction)
	metrics     *obs.Registry               // registry the edges' series live in
	links       map[[2]wire.NodeID]sim.Link // per-link paths on the simulator; nil = 1 ms everywhere
	// wrapCloud, when set, stands between the sim and the cloud node.
	wrapCloud func(*cloud.Node) core.Handler
	// tap, when set, sees every frame a node sends, as it leaves the node,
	// in the node's turn.
	tap func(h core.Handler, env wire.Envelope)
}

// frameTap stands between the host and a node and shows see every frame
// the node sends.
type frameTap struct {
	core.Handler
	see func(h core.Handler, env wire.Envelope)
}

func (f frameTap) Receive(now int64, env wire.Envelope) []wire.Envelope {
	return f.show(f.Handler.Receive(now, env))
}

func (f frameTap) Tick(now int64) []wire.Envelope { return f.show(f.Handler.Tick(now)) }

func (f frameTap) show(out []wire.Envelope) []wire.Envelope {
	for _, env := range out {
		f.see(f.Handler, env)
	}
	return out
}

func newRWorld(t *testing.T, o rworldOpts) *rworld {
	t.Helper()
	if o.proofTO == 0 {
		o.proofTO = 2 * s
	}
	if o.lease == 0 {
		o.lease = 300 * ms
	}
	if o.l0Thresh == 0 {
		o.l0Thresh = 100
	}
	if o.gossip == 0 {
		o.gossip = -1 // no gossip unless the test asks for it
	}
	d, err := deploy.Build(deploy.Topology{
		Replicas: 3,
		Clients:  2,
		Cloud: cloud.Config{
			Levels:       3,
			PageCap:      4,
			GossipEvery:  o.gossip,
			LeaseTimeout: o.lease,
		},
		Edge: edge.Config{
			BatchSize:       2,
			FlushEvery:      100 * ms,
			L0Threshold:     o.l0Thresh,
			LevelThresholds: []int{2, 4, 8},
			HeartbeatEvery:  50 * ms,
			Metrics:         o.metrics,
		},
		Faults: map[wire.NodeID]*edge.Fault{"edge-1": o.leaderFault, "edge-1.r1": o.r1Fault},
	})
	if err != nil {
		t.Fatal(err)
	}
	chain := d.Chains[0]
	w := &rworld{world: world{cloud: d.Cloud, edge: chain[0]}, reg: d.Registry, leader: chain[0], r1: chain[1], r2: chain[2]}
	mkClient := func(id wire.NodeID) *client.Core {
		return client.New(client.Config{
			ID:           id,
			Edge:         "edge-1",
			Cloud:        "cloud",
			ProofTimeout: o.proofTO,
		}, d.Keys[id], d.Registry)
	}
	w.c1, w.c2 = mkClient("c1"), mkClient("c2")
	var add func(core.Handler)
	if o.tcp {
		// The endpoints tick as often as the simulator does.
		lb := deploy.NewLoopback(transport.TCPConfig{TickEvery: 5 * time.Millisecond, Fault: o.fault})
		t.Cleanup(lb.Close)
		w.host = tcpHost{t: t, lb: lb, t0: time.Now().UnixNano()}
		add = func(h core.Handler) {
			if err := lb.Host(h); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		w.sim = sim.New(sim.Config{
			TickEvery:   5 * ms,
			DefaultLink: sim.Link{Latency: 1 * ms},
			Links:       o.links,
			Fault:       o.fault,
		})
		w.host, add = simHost{w.sim}, w.sim.Add
	}
	var cloudNode core.Handler = w.cloud
	if o.wrapCloud != nil {
		cloudNode = o.wrapCloud(w.cloud)
	}
	for _, h := range []core.Handler{cloudNode, w.leader, w.r1, w.r2, w.c1, w.c2} {
		if o.tap != nil {
			h = frameTap{h, o.tap}
		}
		add(h)
	}
	return w
}

// settle advances virtual time unconditionally (unlike world.settle's
// Drain, which stops at the first quiet period — too early for failover,
// whose triggers are timeouts that fire into silence).
func (w *rworld) settle(t *testing.T, limit int64) {
	t.Helper()
	w.host.wait(limit)
}

// on runs fn as a turn of node id that sends nothing: how a scenario that
// runs on either host reads a node's state.
func (w *rworld) on(id wire.NodeID, fn func()) {
	w.host.do(id, func(int64) []wire.Envelope {
		fn()
		return nil
	})
}

// promoted returns the replica that currently leads the chain.
func (w *rworld) promoted(t *testing.T) *edge.Node {
	t.Helper()
	for _, en := range []*edge.Node{w.leader, w.r1, w.r2} {
		if en.ID() == w.cloud.ChainLeader("edge-1") {
			return en
		}
	}
	t.Fatalf("unknown chain leader %q", w.cloud.ChainLeader("edge-1"))
	return nil
}

// A leader that dies the instant it cuts a block — before acknowledging,
// replicating or certifying it — must not strand the writers: the cloud's
// lease expires, a follower with the full certified history is promoted,
// and the clients' rebound resends complete both stuck writes on the new
// leader.
func TestFailoverKillLeaderMidBatch(t *testing.T) {
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{KillMidBatch: true, KillAtBID: 1},
	})

	// Block 0 commits and certifies normally, and is mirrored.
	op0 := w.add(w.c1, "m0")
	op1 := w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v (err=%v / %v)", op0.Phase, op1.Phase, op0.Err, op1.Err)
	}

	// Block 1's cut kills the leader: neither writer is acknowledged.
	op2 := w.add(w.c1, "m2")
	op3 := w.add(w.c2, "m3")
	w.settle(t, 4*s)

	if !w.leader.Killed() {
		t.Fatal("leader should have crashed cutting block 1")
	}
	if got := w.cloud.Stats().Transfers; got != 1 {
		t.Fatalf("transfers = %d, want 1", got)
	}
	newLeader := w.cloud.ChainLeader("edge-1")
	if newLeader == "edge-1" {
		t.Fatal("chain leader did not change")
	}
	if w.promoted(t).IsFollower() {
		t.Fatal("promoted replica still in follower mode")
	}
	for i, op := range []*client.Op{op2, op3} {
		if op.Err != nil {
			t.Fatalf("post-kill op%d err = %v", i, op.Err)
		}
		if op.Phase != core.PhaseII {
			t.Fatalf("post-kill op%d phase = %v, want phase-II", i, op.Phase)
		}
	}
	for i, c := range []*client.Core{w.c1, w.c2} {
		if c.Edge() != newLeader {
			t.Fatalf("client %d bound to %q, want %q", i, c.Edge(), newLeader)
		}
		if c.Chain() != "edge-1" {
			t.Fatalf("client %d chain = %q, want edge-1", i, c.Chain())
		}
		if got := c.Stats().Failovers; got != 1 {
			t.Fatalf("client %d failovers = %d, want 1", i, got)
		}
	}

	// The mirrored history serves: block 0 reads back Phase II from the
	// promoted replica.
	r := w.read(w.c2, 0)
	w.settle(t, 2*s)
	if r.Phase != core.PhaseII || r.Err != nil {
		t.Fatalf("mirrored read phase = %v err = %v", r.Phase, r.Err)
	}
	if r.Block == nil || len(r.Block.Entries) != 2 {
		t.Fatalf("mirrored block = %+v", r.Block)
	}
}

// TestFailoverCertStallTransfersAtThreeLeases: a leader that drops its
// certifies but keeps heartbeating holds its lease, so only the
// certification-stall bound of three leases (0.9 s here) deposes it. The
// followers report the mirrored block from their first heartbeat: nothing
// moves at 0.8 s, one transfer promotes edge-1.r1 after the bound, the
// promoted replica certifies the block, and both writes reach Phase II
// inside the clients' proof timeout, with no dispute and no verdict.
func TestFailoverCertStallTransfersAtThreeLeases(t *testing.T) {
	w := newRWorld(t, rworldOpts{leaderFault: &edge.Fault{DropCertify: true}})
	op0 := w.add(w.c1, "m0")
	op1 := w.add(w.c2, "m1")
	w.settle(t, 800*ms)
	if got := w.cloud.Stats().Transfers; got != 0 {
		t.Fatalf("transfers at 0.8 s = %d, want 0", got)
	}
	if op0.Phase != core.PhaseI || op1.Phase != core.PhaseI {
		t.Fatalf("phases at 0.8 s = %v / %v, want Phase I", op0.Phase, op1.Phase)
	}
	w.settle(t, 3*s)
	if got, leader := w.cloud.Stats().Transfers, w.cloud.ChainLeader("edge-1"); got != 1 || leader != "edge-1.r1" {
		t.Fatalf("transfers = %d to %q, want 1 to edge-1.r1", got, leader)
	}
	for i, op := range []*client.Op{op0, op1} {
		if op.Err != nil || op.Phase != core.PhaseII || op.DisputeFiled() {
			t.Fatalf("op%d phase = %v err = %v disputed = %v, want Phase II undisputed", i, op.Phase, op.Err, op.DisputeFiled())
		}
	}
	if st := w.cloud.Stats(); st.Disputes != 0 || st.GuiltyEdges != 0 {
		t.Fatalf("disputes = %d, guilty edges = %d; want 0, 0", st.Disputes, st.GuiltyEdges)
	}
}

// TestPromotionLearnedAfterClientResend: the cloud's frames to the
// followers are slow across the failover window, so a rebound client's
// re-sends reach the promoted replica before its own transfer does. The
// replica holds them until the transfer arrives and handles them then:
// each client sends the promoted replica its rebind's write alone, and no
// re-send of the retry pass follows it.
func TestPromotionLearnedAfterClientResend(t *testing.T) {
	net := faultnet.New(11)
	toReplica := map[wire.NodeID]int{} // the simulator runs one turn at a time
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{KillMidBatch: true, KillAtBID: 1},
		fault:       net,
		tap: func(h core.Handler, env wire.Envelope) {
			if _, ok := env.Msg.(*wire.PutBatch); ok && env.To != "edge-1" {
				toReplica[env.From]++
			}
		},
	})
	op0, op1 := w.add(w.c1, "m0"), w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v", op0.Phase, op1.Phase)
	}

	slow := faultnet.LinkFaults{DelayMin: 50 * ms, DelayMax: 50 * ms}
	from, to := w.sim.Now(), w.sim.Now()+1*s
	for _, f := range []wire.NodeID{"edge-1.r1", "edge-1.r2"} {
		net.Add(faultnet.Rule{From: "cloud", To: f, FromT: from, ToT: to, Faults: slow})
	}
	op2, op3 := w.add(w.c1, "m2"), w.add(w.c2, "m3") // the cut kills the leader
	w.settle(t, 4*s)
	if !w.leader.Killed() || w.promoted(t).IsFollower() {
		t.Fatalf("no failover: leader killed %v, chain leader %q", w.leader.Killed(), w.cloud.ChainLeader("edge-1"))
	}
	for i, op := range []*client.Op{op2, op3} {
		if op.Err != nil || op.Phase != core.PhaseII {
			t.Fatalf("op%d phase = %v err = %v, want Phase II", i+2, op.Phase, op.Err)
		}
	}
	if toReplica["c1"] != 1 || toReplica["c2"] != 1 {
		t.Fatalf("write batches sent to the promoted replica = %v, want the rebind's one per client", toReplica)
	}
}

// TestFailoverHealsLostPromotion: the leader dies mid-batch and, for 600
// ms from the kill, every frame from the cloud to the followers is lost —
// the view promoting one of them included. The named leader's heartbeats
// report the old view, so they renew no lease and are answered with the
// current view until one lands; the chain serves again, and both writes
// reach Phase II.
func TestFailoverHealsLostPromotion(t *testing.T) {
	net := faultnet.New(5)
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{KillMidBatch: true, KillAtBID: 1},
		fault:       net,
	})
	op0, op1 := w.add(w.c1, "m0"), w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v", op0.Phase, op1.Phase)
	}

	from, to := w.sim.Now(), w.sim.Now()+600*ms
	for _, f := range []wire.NodeID{"edge-1.r1", "edge-1.r2"} {
		net.Add(faultnet.Rule{From: "cloud", To: f, FromT: from, ToT: to, Faults: faultnet.LinkFaults{Drop: 1}})
	}
	op2, op3 := w.add(w.c1, "m2"), w.add(w.c2, "m3") // the cut kills the leader
	w.settle(t, 20*s)
	requireServing(t, w, op2, op3)
}

// TestFailoverRestartedLeaderNeverLeadsBlank: the leader crashes and restarts
// blank 100 ms later, inside its lease. It still is the cloud's named
// leader, but it reports no view: its heartbeats renew no lease and draw
// no view naming it. The lease runs out, a follower is promoted, the
// restarted node follows it, and both writes reach Phase II. The blank
// node never cuts a block.
func TestFailoverRestartedLeaderNeverLeadsBlank(t *testing.T) {
	w := newRWorld(t, rworldOpts{})
	op0, op1 := w.add(w.c1, "m0"), w.add(w.c2, "m1")
	w.settle(t, 1*s)
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("warmup phases = %v / %v", op0.Phase, op1.Phase)
	}
	cut := w.leader.Stats().BlocksCut

	w.leader.Kill()
	w.settle(t, 100*ms)
	w.leader.Restart(w.sim.Now())
	op2, op3 := w.add(w.c1, "m2"), w.add(w.c2, "m3")
	w.settle(t, 20*s)
	if w.cloud.ChainLeader("edge-1") == "edge-1" {
		t.Fatal("the restarted leader is still the chain's leader")
	}
	requireServing(t, w, op2, op3)
	if !w.leader.IsFollower() || w.leader.Leader() != w.cloud.ChainLeader("edge-1") {
		t.Fatalf("restarted node follower=%v under %q, want following %q",
			w.leader.IsFollower(), w.leader.Leader(), w.cloud.ChainLeader("edge-1"))
	}
	if got := w.leader.Stats().BlocksCut; got != cut {
		t.Fatalf("the restarted node cut %d blocks from its blank log", got-cut)
	}
}

// requireServing fails t unless the cloud's leader serves at the cloud's
// epoch, the ops reached Phase II, and nobody was convicted.
func requireServing(t *testing.T, w *rworld, ops ...*client.Op) {
	t.Helper()
	lead := w.promoted(t)
	if lead.IsFollower() || lead.Epoch() != w.cloud.ChainEpoch("edge-1") {
		t.Fatalf("the cloud names %s leader at epoch %d; it is follower=%v at epoch %d",
			lead.ID(), w.cloud.ChainEpoch("edge-1"), lead.IsFollower(), lead.Epoch())
	}
	for i, op := range ops {
		if op.Err != nil || op.Phase != core.PhaseII {
			t.Fatalf("op %d phase = %v err = %v, want Phase II", i, op.Phase, op.Err)
		}
	}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
		if _, banned := w.cloud.Flagged(id); banned {
			t.Fatalf("honest %s convicted", id)
		}
	}
}

// A leader that equivocates on the replication stream — clients and cloud
// see one block, followers another — is convicted by its own followers the
// moment the cloud certificate contradicts the mirror, and the conviction
// triggers a leadership transfer. The chain keeps accepting writes under
// the promoted replica.
func TestFailoverEquivocatingLeaderConvicted(t *testing.T) {
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{EquivocateReplication: true},
	})

	op0 := w.add(w.c1, "m0")
	op1 := w.add(w.c2, "m1")
	w.settle(t, 3*s)

	// The honest block certified, so the writers are unharmed…
	if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
		t.Fatalf("writer phases = %v / %v (err=%v / %v)", op0.Phase, op1.Phase, op0.Err, op1.Err)
	}
	// …while the followers convicted the leader with the tampered stream.
	if _, banned := w.cloud.Flagged("edge-1"); !banned {
		t.Fatal("equivocating leader not convicted")
	}
	if got := w.cloud.Stats().Transfers; got == 0 {
		t.Fatal("conviction did not trigger a transfer")
	}
	newLeader := w.cloud.ChainLeader("edge-1")
	if newLeader == "edge-1" {
		t.Fatal("chain leader did not change")
	}

	// The promoted replica's mirror of block 0 is poisoned (it holds the
	// tampered copy), but the chain accepts and certifies fresh writes.
	op2 := w.add(w.c1, "m2")
	op3 := w.add(w.c2, "m3")
	w.settle(t, 2*s)
	for i, op := range []*client.Op{op2, op3} {
		if op.Err != nil || op.Phase != core.PhaseII {
			t.Fatalf("post-transfer op%d phase = %v err = %v", i, op.Phase, op.Err)
		}
	}
	// The successor must not have been convicted for the poison it inherited.
	if _, banned := w.cloud.Flagged(newLeader); banned {
		t.Fatalf("innocent successor %q convicted", newLeader)
	}
}

// A promoted follower that serves a stale view — hiding the certified tail
// it mirrored — is convicted through the standard omission machinery
// (cloud gossip contradicts its signed denial), and the cloud fails over
// again to the remaining honest replica.
func TestFailoverStaleFollowerConvicted(t *testing.T) {
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{KillMidBatch: true, KillAtBID: 2},
		r1Fault:     &edge.Fault{PromoteStale: true, PromoteStaleFrom: 1},
		gossip:      100 * ms,
	})

	// Blocks 0 and 1 commit, certify, and are mirrored by both followers.
	for _, m := range []string{"m0", "m1", "m2", "m3"} {
		w.add(w.c1, m)
	}
	w.settle(t, 1*s)

	// Block 2's cut kills the leader; the lease expires and r1 — equal
	// certified prefix, listed first — is promoted, and starts serving a
	// stale view that pretends block 1 never happened.
	w.add(w.c1, "m4")
	w.add(w.c2, "m5")
	w.settle(t, 2*s)
	if w.cloud.ChainLeader("edge-1") != "edge-1.r1" {
		t.Fatalf("expected r1 promoted first, leader = %q", w.cloud.ChainLeader("edge-1"))
	}

	// A read of the hidden, gossip-covered block 1 yields a signed denial
	// — a provable omission that convicts r1 and triggers the second
	// transfer.
	r := w.read(w.c2, 1)
	w.settle(t, 4*s)

	if _, banned := w.cloud.Flagged("edge-1.r1"); !banned {
		t.Fatal("stale-serving promoted follower not convicted")
	}
	if r.Verdict == nil || !r.Verdict.Guilty || r.Verdict.Edge != "edge-1.r1" {
		t.Fatalf("read verdict = %+v, want guilty edge-1.r1", r.Verdict)
	}
	if got := w.cloud.ChainLeader("edge-1"); got != "edge-1.r2" {
		t.Fatalf("chain leader = %q, want edge-1.r2", got)
	}
	if got := w.cloud.Stats().Transfers; got != 2 {
		t.Fatalf("transfers = %d, want 2", got)
	}

	// The surviving honest replica serves the full history.
	r2 := w.read(w.c2, 1)
	w.settle(t, 2*s)
	if r2.Phase != core.PhaseII || r2.Err != nil {
		t.Fatalf("post-recovery read phase = %v err = %v", r2.Phase, r2.Err)
	}
	if got := w.c2.Epoch(); got != 2 {
		t.Fatalf("client epoch = %d, want 2", got)
	}
}

// A session that loses the cloud's one LeadershipTransfer frame is not
// stranded: its next request reaches the demoted ex-leader, which answers
// with the cloud-signed view it holds, and the session rebinds and
// completes on the new leader. The ex-leader holds a view naming the new
// leader either way it learned of its demotion: the transfer, sent by the
// cloud at the failover (its heartbeats were lost, but it still heard the
// cloud), or the view that re-admitted it after a full partition from the
// cloud.
func TestTransferReannouncedByDemotedLeader(t *testing.T) {
	for _, tc := range []struct {
		name      string
		partition bool
	}{{"heartbeats-lost", false}, {"partitioned", true}} {
		t.Run(tc.name, func(t *testing.T) {
			net := faultnet.New(7)
			w := newRWorld(t, rworldOpts{fault: net})
			op0, op1 := w.add(w.c1, "m0"), w.add(w.c2, "m1")
			w.settle(t, 1*s)
			if op0.Phase != core.PhaseII || op1.Phase != core.PhaseII {
				t.Fatalf("warmup phases = %v / %v", op0.Phase, op1.Phase)
			}

			// Across the failover window every frame from the cloud to c1
			// is lost, the transfer included.
			from, to := w.sim.Now(), w.sim.Now()+1*s
			lost := faultnet.LinkFaults{Drop: 1}
			net.Add(faultnet.Rule{From: "cloud", To: "c1", FromT: from, ToT: to, Faults: lost})
			net.Add(faultnet.Rule{From: "edge-1", To: "cloud", FromT: from, ToT: to, Faults: lost})
			if tc.partition {
				net.Add(faultnet.Rule{From: "cloud", To: "edge-1", FromT: from, ToT: to, Faults: lost})
			}
			w.settle(t, 2*s)
			newLeader := w.cloud.ChainLeader("edge-1")
			if newLeader == "edge-1" || !w.leader.IsFollower() {
				t.Fatalf("no failover: leader %q, ex-leader follower=%v", newLeader, w.leader.IsFollower())
			}
			if w.c1.Edge() != "edge-1" || w.c2.Edge() != newLeader {
				t.Fatalf("bindings c1=%q c2=%q, want edge-1 and %q", w.c1.Edge(), w.c2.Edge(), newLeader)
			}

			op2, op3 := w.add(w.c1, "m2"), w.add(w.c1, "m3")
			w.settle(t, 2*s)
			for i, op := range []*client.Op{op2, op3} {
				if op.Err != nil || op.Phase != core.PhaseII {
					t.Fatalf("op%d phase = %v err = %v", i+2, op.Phase, op.Err)
				}
			}
			if w.c1.Edge() != newLeader || w.c1.Stats().Failovers != 1 {
				t.Fatalf("c1 bound to %q after %d failovers, want %q after 1",
					w.c1.Edge(), w.c1.Stats().Failovers, newLeader)
			}
		})
	}
}
