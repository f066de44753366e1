package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"wedgechain/internal/baseline/cloudonly"
	"wedgechain/internal/baseline/edgebase"
	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/edge"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/shard"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// System selects which of the three evaluated systems to build.
type System int

// The three systems of the evaluation.
const (
	Wedge System = iota
	CloudOnly
	EdgeBase
)

var systemNames = [...]string{"WedgeChain", "Cloud-only", "Edge-baseline"}

// String returns the paper's system name.
func (s System) String() string { return systemNames[s] }

// AllSystems lists the systems in the paper's plotting order.
var AllSystems = []System{Wedge, CloudOnly, EdgeBase}

// WorldCfg describes one experimental setup.
type WorldCfg struct {
	System System
	// Shards spreads the keyspace across this many edge nodes
	// (WedgeChain only; the baselines have no sharding story). Each
	// client session multiplexes every shard, routing puts and gets by
	// key. 0 or 1 reproduces the paper's single-edge deployment.
	Shards  int
	Clients int
	// Batch is the entries per block (0 = the edge layer's default). Every
	// system cuts blocks of Batch entries, and it sizes the cost model,
	// the merged pages and the preload bursts.
	Batch     int
	ValueSize int
	// KeySpace is the partition's key range; Preload keys are written
	// before measurement (reads address the preloaded range).
	KeySpace int
	Preload  int
	Place    Placement
	// Workload shape per client (see workload.Config).
	WritesPerRound int
	ReadsPerRound  int
	Rounds         int
	WarmupRounds   int
	// Edge, Cloud and Client are the templates the WedgeChain nodes are
	// built from; the world sets identities, peers, Batch and Metrics.
	// The paper's worlds run no flush timer and no gossip, so a zero
	// Edge.FlushEvery or Cloud.GossipEvery means off here. Sharded worlds
	// set a flush period: a burst of B writes splits into sub-batches of
	// about B/Shards entries that would otherwise never fill a block. The
	// baselines take their thresholds and freshness window from these too.
	Edge   edge.Config
	Cloud  cloud.Config
	Client client.Config
	// Durable gives every edge a persistent store (real segment files,
	// real fsyncs). A durable world must state its fsync discipline:
	// Edge.SyncEvery is either SyncPerBlock or a positive group-commit
	// window (virtual ns). Leaving it zero panics — durable numbers
	// measured with the group-commit dimension silently unset are not
	// numbers.
	Durable bool
	// DataDir roots the durable stores; empty uses a fresh temp dir.
	DataDir string
	Seed    int64
	// Metrics threads an observability registry into every node of the
	// world (WedgeChain systems only). Nil falls back to LiveMetrics; nil
	// again gives each node a private registry.
	Metrics *obs.Registry
}

// LiveMetrics is the registry worlds fall back to when WorldCfg.Metrics
// is nil. wedge-bench sets it when -metrics-addr is given, so a running
// experiment's nodes are scrapeable without every call site threading a
// registry.
var LiveMetrics *obs.Registry

func (c *WorldCfg) fill() {
	if c.Metrics == nil {
		c.Metrics = LiveMetrics
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Batch <= 0 {
		c.Batch = edge.Defaults().BatchSize
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 100_000
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if len(c.Edge.LevelThresholds) == 0 {
		c.Edge.LevelThresholds = edge.Defaults().LevelThresholds
	}
	if c.Edge.FlushEvery == 0 {
		c.Edge.FlushEvery = -1
	}
	if c.Cloud.GossipEvery == 0 {
		c.Cloud.GossipEvery = -1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// World is a built, ready-to-run experiment.
type World struct {
	Cfg     WorldCfg
	Sim     *sim.Sim
	Drivers []*workload.Driver
	// WedgeClients exposes the protocol client cores (WedgeChain only)
	// for Phase I/II instrumentation — one per client per shard, in
	// client-major order.
	WedgeClients []*client.Core
	// WedgeSessions exposes the per-client sharded sessions.
	WedgeSessions []*client.Sharded
	// EdgeNode / CloudNode are set for the WedgeChain system. EdgeNode
	// is the first shard's edge; EdgeNodes lists all of them.
	EdgeNode  *edge.Node
	EdgeNodes []*edge.Node
	CloudNode *cloud.Node

	roles       map[wire.NodeID]Role
	preloadConn workload.Conn
	ownDataDir  string // temp dir backing a durable world, removed on Close
}

// edgeIndex returns the LSMerkle index of the WedgeChain edge id.
func (w *World) edgeIndex(id wire.NodeID) *mlsm.Index {
	i := slices.IndexFunc(w.EdgeNodes, func(en *edge.Node) bool { return en.ID() == id })
	return w.EdgeNodes[i].Index()
}

// Close releases a durable world's resources: edge stores are synced and
// closed, and a temp data dir owned by the world is removed. In-memory
// worlds are no-ops.
func (w *World) Close() {
	for _, en := range w.EdgeNodes {
		en.CloseStore()
	}
	if w.ownDataDir != "" {
		os.RemoveAll(w.ownDataDir)
	}
}

const (
	cloudID = wire.NodeID("cloud")
	edgeID  = wire.NodeID("edge-1")
)

func clientID(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("c%d", i+1)) }

func shardEdgeID(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("edge-%d", i+1)) }

// BuildWorld constructs the system, topology and drivers for cfg.
func BuildWorld(cfg WorldCfg) *World {
	cfg.fill()
	if cfg.System != Wedge {
		// The baselines have no sharding story; they keep one edge.
		cfg.Shards = 1
	}
	w := &World{Cfg: cfg, roles: map[wire.NodeID]Role{cloudID: RCloud}}

	edgeIDs := make([]wire.NodeID, cfg.Shards)
	for i := range edgeIDs {
		edgeIDs[i] = shardEdgeID(i)
		w.roles[edgeIDs[i]] = REdge
	}

	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	ids := append([]wire.NodeID{cloudID}, edgeIDs...)
	for i := 0; i < cfg.Clients; i++ {
		ids = append(ids, clientID(i))
	}
	for _, id := range ids {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	for i := 0; i < cfg.Clients; i++ {
		w.roles[clientID(i)] = RClient
	}

	// Topology: directional links per role pair. Every shard edge sits
	// in the same datacenter as the paper's single edge; clients reach
	// all of them and the cloud coordinates with each over the tight
	// edge-cloud channel.
	links := map[[2]wire.NodeID]sim.Link{}
	addPair := func(a, b wire.NodeID, da, db DC, bw float64) {
		links[[2]wire.NodeID{a, b}] = linkFor(da, db, bw)
		links[[2]wire.NodeID{b, a}] = linkFor(db, da, bw)
	}
	for _, eid := range edgeIDs {
		addPair(eid, cloudID, cfg.Place.Edge, cfg.Place.Cloud, coordBW)
	}
	for i := 0; i < cfg.Clients; i++ {
		cid := clientID(i)
		for _, eid := range edgeIDs {
			addPair(cid, eid, cfg.Place.Client, cfg.Place.Edge, wanBW)
		}
		addPair(cid, cloudID, cfg.Place.Client, cfg.Place.Cloud, wanBW)
	}

	costs := DefaultCosts(cfg.Batch)
	w.Sim = sim.New(sim.Config{
		TickEvery:   int64(1e6),
		DefaultLink: sim.Link{Latency: int64(5e5), Bandwidth: lanBW},
		Links:       links,
		Cost:        costs.Fn(w.roles, w.edgeIndex),
	})

	var gossipTo []wire.NodeID
	for i := 0; i < cfg.Clients; i++ {
		gossipTo = append(gossipTo, clientID(i))
	}

	ring, err := shard.New(edgeIDs)
	if err != nil {
		panic(err) // unreachable: ids are distinct by construction
	}

	mkConn := func(i int) workload.Conn {
		cid := clientID(i)
		switch cfg.System {
		case Wedge:
			ccfg := cfg.Client
			ccfg.ID, ccfg.Cloud, ccfg.Metrics = cid, cloudID, cfg.Metrics
			s := client.NewSharded(ccfg, ring, keys[cid], reg)
			w.WedgeSessions = append(w.WedgeSessions, s)
			w.WedgeClients = append(w.WedgeClients, s.Cores()...)
			return workload.ShardedConn{Sharded: s}
		case CloudOnly:
			return workload.CloudOnlyConn{Client: cloudonly.NewClient(cid, cloudID, keys[cid])}
		default:
			return workload.EBConn{Client: edgebase.NewClient(cid, edgeID, cloudID, keys[cid], reg, cfg.Client.FreshnessWindow)}
		}
	}

	switch cfg.System {
	case Wedge:
		ccfg := cfg.Cloud
		ccfg.ID, ccfg.GossipTo, ccfg.Metrics = cloudID, gossipTo, cfg.Metrics
		ccfg.Levels = len(cfg.Edge.LevelThresholds)
		ccfg.PageCap = cfg.Batch
		w.CloudNode = cloud.New(ccfg, keys[cloudID], reg)
		var dataDir string
		if cfg.Durable {
			// Validated up front: a durable world with SyncEvery unset
			// panics here rather than producing misleading numbers.
			cfg.Edge.SyncEvery = durableSyncEvery(cfg.Edge.SyncEvery)
			dataDir = cfg.DataDir
			if dataDir == "" {
				d, err := os.MkdirTemp("", "wedge-durable-world-*")
				if err != nil {
					panic(fmt.Sprintf("bench: durable world temp dir: %v", err))
				}
				dataDir = d
				w.ownDataDir = d
			}
		}
		for _, eid := range edgeIDs {
			ecfg := cfg.Edge
			ecfg.ID, ecfg.Cloud, ecfg.Metrics = eid, cloudID, cfg.Metrics
			ecfg.BatchSize = cfg.Batch
			var en *edge.Node
			if cfg.Durable {
				var err error
				en, _, err = edge.NewPersistent(ecfg, keys[eid], reg, filepath.Join(dataDir, string(eid)), true)
				if err != nil {
					panic(fmt.Sprintf("bench: durable edge %s: %v", eid, err))
				}
			} else {
				en = edge.New(ecfg, keys[eid], reg)
			}
			w.EdgeNodes = append(w.EdgeNodes, en)
			w.Sim.Add(en)
		}
		w.EdgeNode = w.EdgeNodes[0]
		w.Sim.Add(w.CloudNode)
	case CloudOnly:
		w.Sim.Add(cloudonly.NewServer(cloudonly.ServerConfig{ID: cloudID, BatchSize: cfg.Batch}, reg))
	case EdgeBase:
		w.Sim.Add(edgebase.NewCloud(edgebase.CloudConfig{
			ID: cloudID, Edge: edgeID,
			BatchSize:       cfg.Batch,
			L0Threshold:     cfg.Edge.L0Threshold,
			LevelThresholds: cfg.Edge.LevelThresholds,
			PageCap:         cfg.Batch,
		}, keys[cloudID], reg))
		w.Sim.Add(edgebase.NewEdge(edgebase.EdgeConfig{
			ID: edgeID, Cloud: cloudID,
			LevelThresholds: cfg.Edge.LevelThresholds,
		}, keys[edgeID], reg))
	}

	readSpace := cfg.KeySpace
	if cfg.Preload > 0 && cfg.Preload < readSpace {
		readSpace = cfg.Preload
	}
	for i := 0; i < cfg.Clients; i++ {
		conn := mkConn(i)
		if i == 0 {
			w.preloadConn = conn
		}
		d := workload.NewDriver(workload.Config{
			WritesPerRound: cfg.WritesPerRound,
			ReadsPerRound:  cfg.ReadsPerRound,
			Rounds:         cfg.Rounds,
			WarmupRounds:   cfg.WarmupRounds,
			Keys:           workload.NewUniformKeys(readSpace, cfg.Seed+int64(i)*7919),
			ValueSize:      cfg.ValueSize,
			Seed:           cfg.Seed + int64(i),
		}, conn)
		w.Drivers = append(w.Drivers, d)
		w.Sim.Add(d)
	}
	return w
}

// Preload writes cfg.Preload sequential keys through the protocol before
// the measured workload starts, so read experiments address real data.
func (w *World) Preload() {
	if w.Cfg.Preload == 0 {
		return
	}
	gen := &workload.SeqKeys{}
	val := make([]byte, w.Cfg.ValueSize)
	written := 0
	for written < w.Cfg.Preload {
		n := w.Cfg.Batch
		if written+n > w.Cfg.Preload {
			n = w.Cfg.Preload - written
		}
		keys := make([][]byte, n)
		values := make([][]byte, n)
		for i := 0; i < n; i++ {
			keys[i] = gen.Next()
			values[i] = val
		}
		stats, envs := w.preloadConn.PutBurst(w.Sim.Now(), keys, values)
		w.Sim.Inject(envs)
		ok := w.Sim.RunWhile(func() bool {
			for _, st := range stats {
				if !st.Settled() {
					return true
				}
			}
			return false
		}, w.Sim.Now()+int64(600e9))
		if !ok {
			panic("bench: preload stalled")
		}
		written += n
	}
	// Let background certification and compaction settle.
	w.Sim.Drain(w.Sim.Now() + int64(60e9))
}

// Run starts every driver and runs the workload to completion (bounded by
// limit nanoseconds of additional virtual time).
func (w *World) Run(limit int64) {
	for _, d := range w.Drivers {
		d.Start()
	}
	deadline := w.Sim.Now() + limit
	done := func() bool {
		for _, d := range w.Drivers {
			if !d.Done() {
				return true
			}
		}
		return false
	}
	if !w.Sim.RunWhile(done, deadline) {
		panic(fmt.Sprintf("bench: workload did not finish within limit (%s, %d clients, B=%d)",
			w.Cfg.System, w.Cfg.Clients, w.Cfg.Batch))
	}
}

// AggMetrics merges all drivers' metrics.
func (w *World) AggMetrics() *workload.Metrics {
	agg := &workload.Metrics{}
	for i, d := range w.Drivers {
		m := d.Metrics()
		agg.BurstLat = append(agg.BurstLat, m.BurstLat...)
		agg.ReadLat = append(agg.ReadLat, m.ReadLat...)
		agg.Writes += m.Writes
		agg.Reads += m.Reads
		agg.Failed += m.Failed
		if i == 0 || m.StartAt < agg.StartAt {
			agg.StartAt = m.StartAt
		}
		if m.EndAt > agg.EndAt {
			agg.EndAt = m.EndAt
		}
	}
	return agg
}

// Throughput sums per-driver throughput, each computed over that driver's
// own measurement window — unbiased under staggered starts, unlike a
// global min-start/max-end window.
func (w *World) Throughput() float64 {
	var total float64
	for _, d := range w.Drivers {
		total += d.Metrics().Throughput()
	}
	return total
}

// EdgeCloudBytes reports bytes moved on the edge-cloud coordination
// channel in both directions (the data-free certification savings
// metric), summed over every shard's edge.
func (w *World) EdgeCloudBytes() uint64 {
	lb := w.Sim.Stats().LinkBytes
	var total uint64
	for i := 0; i < w.Cfg.Shards; i++ {
		eid := shardEdgeID(i)
		total += lb[[2]wire.NodeID{eid, cloudID}] + lb[[2]wire.NodeID{cloudID, eid}]
	}
	return total
}
