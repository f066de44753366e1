package bench

import (
	"fmt"

	"wedgechain/internal/baseline/cloudonly"
	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/edge"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// buildCloudOnlyLocal returns a preloaded Cloud-only server for local
// measurement (Figure 5(d)).
func buildCloudOnlyLocal(keys int) *cloudonly.Server {
	reg := wcrypto.NewRegistry()
	ck := wcrypto.DeterministicKey("c1")
	reg.Register("c1", ck.Pub)
	srv := cloudonly.NewServer(cloudonly.ServerConfig{ID: cloudID, BatchSize: 100}, reg)
	val := make([]byte, 100)
	seq := uint64(0)
	for i := 0; i < keys; i++ {
		seq++
		e := wire.Entry{Client: "c1", Seq: seq, Key: workload.KeyName(i), Value: val}
		e.Sig = wcrypto.SignMsg(ck, &e)
		srv.Receive(0, wire.Envelope{From: "c1", To: cloudID, Msg: &wire.CloudPutRequest{Entry: e}})
	}
	srv.Flush(0)
	return srv
}

// faultBatch is B in the fault worlds.
const faultBatch = 100

// faultWorld builds a two-client WedgeChain world with a byzantine edge,
// the paper topology, and the calibrated cost model. Like the paper's
// worlds it runs no flush timer; a negative gossipEvery turns gossip off.
type faultWorld struct {
	sim    *sim.Sim
	cloud  *cloud.Node
	edge   *edge.Node
	victim *client.Core
	writer *client.Core
}

func buildFaultWorld(fault *edge.Fault, gossipEvery, freshness int64) *faultWorld {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{cloudID, edgeID, "c1", "c2"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	roles := map[wire.NodeID]Role{cloudID: RCloud, edgeID: REdge, "c1": RClient, "c2": RClient}
	costs := DefaultCosts(faultBatch)

	links := map[[2]wire.NodeID]sim.Link{}
	add := func(a, b wire.NodeID, da, db DC, bw float64) {
		links[[2]wire.NodeID{a, b}] = linkFor(da, db, bw)
		links[[2]wire.NodeID{b, a}] = linkFor(db, da, bw)
	}
	add(edgeID, cloudID, California, Virginia, coordBW)
	for _, c := range []wire.NodeID{"c1", "c2"} {
		add(c, edgeID, California, California, lanBW)
		add(c, cloudID, California, Virginia, wanBW)
	}

	fw := &faultWorld{}
	fw.sim = sim.New(sim.Config{
		TickEvery:   int64(1e6),
		DefaultLink: sim.Link{Latency: int64(5e5), Bandwidth: lanBW},
		Links:       links,
		Cost:        costs.Fn(roles, func(wire.NodeID) *mlsm.Index { return fw.edge.Index() }),
	})
	levels := []int{2, 4, 8}
	fw.cloud = cloud.New(cloud.Config{
		ID: cloudID, Levels: len(levels), PageCap: faultBatch,
		GossipEvery: gossipEvery,
		GossipTo:    []wire.NodeID{"c1", "c2"},
	}, keys[cloudID], reg)
	fw.edge = edge.New(edge.Config{
		ID: edgeID, Cloud: cloudID,
		BatchSize: faultBatch, FlushEvery: -1, L0Threshold: 2,
		LevelThresholds: levels,
		Fault:           fault,
	}, keys[edgeID], reg)
	mk := func(id wire.NodeID) *client.Core {
		return client.New(client.Config{
			ID: id, Edge: edgeID, Cloud: cloudID,
			ProofTimeout:    int64(2e9),
			FreshnessWindow: freshness,
		}, keys[id], reg)
	}
	fw.writer = mk("c1")
	fw.victim = mk("c2")
	fw.sim.Add(fw.cloud)
	fw.sim.Add(fw.edge)
	fw.sim.Add(fw.writer)
	fw.sim.Add(fw.victim)
	return fw
}

// writeBatch pushes one full batch of adds from the writer and settles.
func (fw *faultWorld) writeBatch() {
	var last *client.Op
	for i := 0; i < faultBatch; i++ {
		op, envs := fw.writer.Add(fw.sim.Now(), []byte(fmt.Sprintf("payload-%d", i)))
		fw.sim.Inject(envs)
		last = op
	}
	ok := fw.sim.RunWhile(func() bool { return !last.Done }, fw.sim.Now()+int64(600e9))
	if !ok {
		panic("bench: fault world write stalled")
	}
}

// runOmission measures omission-attack detection latency for a gossip
// period: the virtual time from the block's commit until the guilty
// verdict reaches the victim. The gossip period dominates this window —
// the paper's "time-window of this threat is a function of the frequency
// of gossip messages" (Section IV-E).
func runOmission(gossipEvery int64) (detection int64, gossipMsgs uint64) {
	fault := &edge.Fault{OmitBlocks: map[uint64]bool{0: true}}
	fw := buildFaultWorld(fault, gossipEvery, 0)
	fw.writeBatch()
	start := fw.sim.Now() // block 0 is committed and certified
	// The victim learns of the block through gossip, then reads it.
	ok := fw.sim.RunWhile(func() bool {
		g := fw.victim.Gossip()
		return g == nil || g.Blocks < 1
	}, fw.sim.Now()+int64(600e9))
	if !ok {
		panic("bench: gossip never arrived")
	}
	op, envs := fw.victim.Read(fw.sim.Now(), 0)
	fw.sim.Inject(envs)
	ok = fw.sim.RunWhile(func() bool { return !op.Done }, fw.sim.Now()+int64(600e9))
	if !ok || op.Verdict == nil || !op.Verdict.Guilty {
		panic("bench: omission not convicted")
	}
	return fw.sim.Now() - start, fw.cloud.Stats().GossipsSent
}

// runFreshness counts stale rejections against a frozen edge for a given
// freshness window. The edge's snapshot is ~1s old when gets are issued.
func runFreshness(window int64) (rejected, accepted int) {
	fault := &edge.Fault{}
	fw := buildFaultWorld(fault, -1, window)
	// Build merged state honestly: 3 batches trip the L0 threshold (2).
	for i := 0; i < 3; i++ {
		fw.writeBatch()
		fw.sim.Drain(fw.sim.Now() + int64(10e9))
	}
	if fw.edge.Stats().Merges == 0 {
		panic("bench: freshness world never merged")
	}
	// Freeze and age the snapshot ~1 second.
	fault.FreezeIndex = true
	fw.sim.RunUntil(fw.sim.Now() + int64(1e9))

	for i := 0; i < 10; i++ {
		op, envs := fw.victim.Get(fw.sim.Now(), []byte(fmt.Sprintf("missing-%d", i)))
		fw.sim.Inject(envs)
		ok := fw.sim.RunWhile(func() bool { return !op.Done }, fw.sim.Now()+int64(600e9))
		if !ok {
			panic("bench: freshness get stalled")
		}
		if op.Err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	return rejected, accepted
}
