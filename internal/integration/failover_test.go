package integration

import (
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// rworld is a replicated-shard cluster: one cloud, a three-member replica
// group for chain "edge-1" (leader edge-1, followers edge-1.r1 and
// edge-1.r2), and two clients.
type rworld struct {
	sim    *sim.Sim
	cloud  *cloud.Node
	leader *edge.Node
	r1, r2 *edge.Node
	c1, c2 *client.Core
	reg    *wcrypto.Registry // the key registry every node checks against
}

type rworldOpts struct {
	leaderFault *edge.Fault
	r1Fault     *edge.Fault
	gossip      int64
	proofTO     int64
	lease       int64
	certTO      int64
	fault       *faultnet.Net // chaos schedules applied to every sim frame
	retryEvery  int64         // client transport-retry period (0 = off)
	l0Thresh    int           // L0 merge trigger (default 100: no compaction)
	metrics     *obs.Registry // registry the edges' series live in
	// wrapCloud, when set, stands between the sim and the cloud node.
	wrapCloud func(*cloud.Node) core.Handler
}

func newRWorld(t *testing.T, o rworldOpts) *rworld {
	t.Helper()
	if o.proofTO == 0 {
		o.proofTO = 2 * s
	}
	if o.lease == 0 {
		o.lease = 300 * ms
	}
	if o.certTO == 0 {
		o.certTO = 1 * s
	}
	if o.l0Thresh == 0 {
		o.l0Thresh = 100
	}
	if o.gossip == 0 {
		o.gossip = -1 // no gossip unless the test asks for it
	}
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "edge-1.r1", "edge-1.r2", "c1", "c2"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	cl := cloud.New(cloud.Config{
		ID:           "cloud",
		Levels:       3,
		PageCap:      4,
		GossipEvery:  o.gossip,
		GossipTo:     []wire.NodeID{"c1", "c2"},
		LeaseTimeout: o.lease,
		CertTimeout:  o.certTO,
	}, keys["cloud"], reg)
	cl.RegisterGroup("edge-1", "edge-1", []wire.NodeID{"edge-1.r1", "edge-1.r2"})
	mkEdge := func(id wire.NodeID, follower bool, fault *edge.Fault) *edge.Node {
		cfg := edge.Config{
			ID:              id,
			Chain:           "edge-1",
			Cloud:           "cloud",
			BatchSize:       2,
			FlushEvery:      100 * ms,
			L0Threshold:     o.l0Thresh,
			LevelThresholds: []int{2, 4, 8},
			HeartbeatEvery:  50 * ms,
			Fault:           fault,
			Metrics:         o.metrics,
		}
		if follower {
			cfg.Follower = true
		} else {
			cfg.Followers = []wire.NodeID{"edge-1.r1", "edge-1.r2"}
		}
		return edge.New(cfg, keys[id], reg)
	}
	w := &rworld{
		reg:    reg,
		cloud:  cl,
		leader: mkEdge("edge-1", false, o.leaderFault),
		r1:     mkEdge("edge-1.r1", true, o.r1Fault),
		r2:     mkEdge("edge-1.r2", true, nil),
	}
	mkClient := func(id wire.NodeID) *client.Core {
		return client.New(client.Config{
			ID:           id,
			Edge:         "edge-1",
			Cloud:        "cloud",
			ProofTimeout: o.proofTO,
			RetryEvery:   o.retryEvery,
		}, keys[id], reg)
	}
	w.c1, w.c2 = mkClient("c1"), mkClient("c2")
	w.sim = sim.New(sim.Config{
		TickEvery:   5 * ms,
		DefaultLink: sim.Link{Latency: 1 * ms},
		Fault:       o.fault,
	})
	if o.wrapCloud != nil {
		w.sim.Add(o.wrapCloud(cl))
	} else {
		w.sim.Add(cl)
	}
	w.sim.Add(w.leader)
	w.sim.Add(w.r1)
	w.sim.Add(w.r2)
	w.sim.Add(w.c1)
	w.sim.Add(w.c2)
	return w
}

func (w *rworld) add(c *client.Core, payload string) *client.Op {
	op, envs := c.Add(w.sim.Now(), []byte(payload))
	w.sim.Inject(envs)
	return op
}

func (w *rworld) read(c *client.Core, bid uint64) *client.Op {
	op, envs := c.Read(w.sim.Now(), bid)
	w.sim.Inject(envs)
	return op
}

// settle advances virtual time unconditionally (unlike world.settle's
// Drain, which stops at the first quiet period — too early for failover,
// whose triggers are timeouts that fire into silence).
func (w *rworld) settle(t *testing.T, limit int64) {
	t.Helper()
	w.sim.RunUntil(w.sim.Now() + limit)
}

// promoted returns the replica that currently leads the chain.
func (w *rworld) promoted(t *testing.T) *edge.Node {
	t.Helper()
	switch w.cloud.ChainLeader("edge-1") {
	case "edge-1":
		return w.leader
	case "edge-1.r1":
		return w.r1
	case "edge-1.r2":
		return w.r2
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

// TestPromotionLearnedAfterClientResend: the cloud's frames to the
// followers are slow across the failover window, so a rebound client's
// re-sends reach the promoted replica before its own transfer does. The
// replica holds them until the transfer arrives and handles them then;
// the clients here never retry, so a dropped re-send would strand its
// write.
func TestPromotionLearnedAfterClientResend(t *testing.T) {
	net := faultnet.New(11)
	w := newRWorld(t, rworldOpts{
		leaderFault: &edge.Fault{KillMidBatch: true, KillAtBID: 1},
		fault:       net,
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
// with the cloud-signed transfer, and the session rebinds and completes on
// the new leader. The ex-leader holds the transfer either way it learned
// of its demotion: sent by the cloud at the transfer (its heartbeats were
// lost, but it still heard the cloud), or re-sent when it rejoined after a
// full partition from the cloud.
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
