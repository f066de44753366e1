package wedgechain

import (
	"fmt"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/edge"
	"wedgechain/internal/obs"
	"wedgechain/internal/shard"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// CloudID is the trusted cloud node's identity in façade clusters.
const CloudID = deploy.CloudID

// EdgeID returns the identity of the i-th edge node (1-based).
func EdgeID(i int) NodeID { return deploy.EdgeID(i) }

// FollowerID returns the identity of the k-th follower replica (1-based)
// of the i-th edge's chain.
func FollowerID(i, k int) NodeID { return deploy.FollowerID(i, k) }

// Cluster is a WedgeChain deployment inside one process: one trusted cloud
// node, one or more untrusted edge nodes, and any number of clients, each
// served by its own TCP endpoint on loopback — the transport the cmd/
// binaries deploy, with the same framing, writer lanes and delivery order.
type Cluster struct {
	cfg Config
	// d holds the keys, the one registry, the cloud-signed shard map and
	// the nodes; edges indexes its edge nodes by identity.
	d     *deploy.Deployment
	edges map[NodeID]*edge.Node
	// net hosts every node, clients included.
	net *deploy.Loopback
}

// NewCluster assembles and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	var heartbeatEvery int64 // heartbeats run in replica groups only
	if cfg.ReplicasPerShard > 1 {
		heartbeatEvery = cfg.HeartbeatEvery.Nanoseconds()
	}
	d, err := deploy.Build(deploy.Topology{
		Edges:    cfg.Edges,
		Shards:   cfg.Shards,
		Replicas: cfg.ReplicasPerShard,
		// Clients join as gossip targets in NewClient.
		Cloud: cloud.Config{
			Levels:       len(cfg.LevelThresholds),
			PageCap:      cfg.PageCap,
			GossipEvery:  cfg.GossipEvery.Nanoseconds(),
			LeaseTimeout: cfg.LeaseTimeout.Nanoseconds(),
			CertTimeout:  cfg.CertTimeout.Nanoseconds(),
			Metrics:      cfg.Metrics,
		},
		Edge: edge.Config{
			BatchSize:       cfg.BatchSize,
			FlushEvery:      cfg.FlushEvery.Nanoseconds(),
			L0Threshold:     cfg.L0Threshold,
			LevelThresholds: cfg.LevelThresholds,
			HeartbeatEvery:  heartbeatEvery,
			MaxUncertified:  cfg.MaxUncertified,
			Metrics:         cfg.Metrics,
		},
		Faults: cfg.EdgeFaults,
		Key:    wcrypto.GenerateKey,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		d:     d,
		edges: make(map[NodeID]*edge.Node),
		net: deploy.NewLoopback(transport.TCPConfig{
			TickEvery: 5 * time.Millisecond,
			Fault:     cfg.Chaos,
			Obs:       cfg.Metrics,
		}),
	}
	// The chaos net shapes every endpoint's links and every node verifies
	// against the one key registry, so their counters carry the
	// cluster-wide label rather than a node's.
	cfg.Chaos.AttachMetrics(cfg.Metrics, "cluster")
	d.Registry.AttachMetrics(cfg.Metrics, "cluster")

	// Cloud first, so every later endpoint can reach it from its first
	// tick.
	hosted := []core.Handler{d.Cloud}
	for _, en := range d.Edges() {
		c.edges[en.ID()] = en
		hosted = append(hosted, en)
	}
	for _, h := range hosted {
		if err := c.net.Host(h); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close stops every node's endpoint and waits for each Serve to return.
func (c *Cluster) Close() { c.net.Close() }

// do runs fn under node id's session mutex, on the caller's goroutine, and
// sends what it returns. fn must not call back into the same node.
func (c *Cluster) do(id NodeID, fn func(now int64) []wire.Envelope) error {
	return c.net.Do(id, fn)
}

// on runs fn under node id's session mutex.
func (c *Cluster) on(id NodeID, fn func()) error {
	return c.do(id, func(int64) []wire.Envelope {
		fn()
		return nil
	})
}

// Punished reports whether the cloud has convicted and banned edgeID,
// with the conviction reason.
func (c *Cluster) Punished(edgeID NodeID) (reason string, banned bool) {
	c.on(CloudID, func() { reason, banned = c.d.Cloud.Flagged(edgeID) })
	return reason, banned
}

// Verdicts returns all guilty verdicts the cloud has issued.
func (c *Cluster) Verdicts() (vs []Verdict) {
	c.on(CloudID, func() { vs = append(vs, c.d.Cloud.Punishments().Verdicts()...) })
	return vs
}

// VerdictsFor returns the guilty verdicts issued against one edge — in a
// sharded cluster, the conviction history of that shard alone.
func (c *Cluster) VerdictsFor(edgeID NodeID) (vs []Verdict) {
	c.on(CloudID, func() { vs = c.d.Cloud.VerdictsFor(edgeID) })
	return vs
}

// Metrics returns the registry holding every node's wedge_* series —
// pass it to obs.StartServer to scrape the cluster, or read quantiles
// (e.g. the wedge_trust_lag_seconds histogram) directly. Always non-nil.
func (c *Cluster) Metrics() *obs.Registry { return c.cfg.Metrics }

// Shards returns the cluster's shard count.
func (c *Cluster) Shards() int { return c.d.Ring.Shards() }

// ShardMap returns the cloud-signed shard map distributed to clients.
func (c *Cluster) ShardMap() *wire.ShardMap { return c.d.ShardMap }

// EdgeStats returns one edge node's operational counters, read on that
// edge's turn. In a sharded cluster this is the per-shard view: writes,
// blocks cut, certifications, reads, and merges for that shard alone.
func (c *Cluster) EdgeStats(edgeID NodeID) (st edge.Stats, err error) {
	en, ok := c.edges[edgeID]
	if !ok {
		return st, fmt.Errorf("wedgechain: unknown edge %q (have edge-1..edge-%d)", edgeID, c.cfg.Edges)
	}
	err = c.on(edgeID, func() { st = en.Stats() })
	return st, err
}

// KillEdge simulates a process crash of one node — leader or follower:
// the node stops answering anything, including its heartbeats. In a
// replicated cluster the cloud notices the silence (or the certification
// stall) and transfers leadership to the best surviving follower; clients
// re-route on the signed transfer without failing their in-flight
// operations.
func (c *Cluster) KillEdge(id NodeID) error {
	en, ok := c.edges[id]
	if !ok {
		return fmt.Errorf("wedgechain: unknown node %q", id)
	}
	return c.on(id, en.Kill)
}

// ChainLeader reports which node the cloud currently recognizes as the
// leader of chain (the chain id is the initial leader's id, e.g.
// "edge-1"). Unreplicated chains lead themselves.
func (c *Cluster) ChainLeader(chain NodeID) (leader NodeID) {
	c.on(CloudID, func() { leader = c.d.Cloud.ChainLeader(chain) })
	return leader
}

// ChainEpoch reports the epoch of the chain's current view (0 until the
// first): every leadership transfer and every rejoin signs the next one.
func (c *Cluster) ChainEpoch(chain NodeID) (epoch uint64) {
	c.on(CloudID, func() { epoch = c.d.Cloud.ChainEpoch(chain) })
	return epoch
}

// NewClient creates an authenticated client session.
//
// With Shards <= 1 the session binds to edgeID's partition exactly as in
// the paper (an empty edgeID defaults to edge-1). With Shards > 1 the
// session ignores the binding and routes through the shard map instead:
// one session multiplexes every shard, with Put/Get routed by key and the
// log API bound to the session's home shard. A non-empty edgeID must name
// an existing edge in either mode.
func (c *Cluster) NewClient(name string, edgeID NodeID) (*Client, error) {
	if edgeID == "" {
		edgeID = EdgeID(1)
	}
	if _, ok := c.edges[edgeID]; !ok {
		return nil, fmt.Errorf("wedgechain: unknown edge %q (have edge-1..edge-%d)", edgeID, c.cfg.Edges)
	}
	id := NodeID(name)

	// Trust the routing table only after checking the cloud's signature
	// on the shard map — an edge must not be able to steer keys.
	var ring *shard.Map
	if c.cfg.Shards > 1 {
		if err := wcrypto.VerifyMsg(c.d.Registry, CloudID, c.d.ShardMap, c.d.ShardMap.CloudSig); err != nil {
			return nil, fmt.Errorf("wedgechain: shard map signature: %w", err)
		}
		var err error
		ring, err = shard.FromWire(c.d.ShardMap)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		ring, err = shard.New([]NodeID{edgeID})
		if err != nil {
			return nil, err
		}
	}

	k, err := wcrypto.GenerateKey(id)
	if err != nil {
		return nil, err
	}
	session := client.NewSharded(client.Config{
		ID:              id,
		Cloud:           CloudID,
		ProofTimeout:    c.cfg.ProofTimeout.Nanoseconds(),
		FreshnessWindow: c.cfg.FreshnessWindow.Nanoseconds(),
		Session:         c.cfg.SessionConsistency,
		Metrics:         c.cfg.Metrics,
	}, ring, k, c.d.Registry)
	cl := newClient(c, id, session)
	for _, cc := range session.Cores() {
		cc.OnPhaseI = cl.onPhaseI
		cc.OnPhaseII = cl.onPhaseII
		cc.OnDone = cl.onDone
	}
	// Host refuses a name already hosted, so the key is registered only
	// for a new session, and the session's endpoint knows every peer
	// before the cloud's replay below is its first frame.
	if err := c.net.Host(session); err != nil {
		return nil, fmt.Errorf("wedgechain: client %q: %w", name, err)
	}
	c.d.Registry.Register(id, k.Pub)
	err = c.do(CloudID, func(now int64) []wire.Envelope {
		c.d.Cloud.AddGossipTarget(id)
		// Replay existing convictions to the new session: the verdict
		// broadcast at conviction time predates this client, and banned
		// edges are excluded from gossip, so without this a late joiner
		// would keep trusting an already-frozen shard.
		var out []wire.Envelope
		for _, v := range c.d.Cloud.Punishments().Verdicts() {
			v := v
			out = append(out, wire.Envelope{From: CloudID, To: id, Msg: &v})
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	return cl, nil
}
