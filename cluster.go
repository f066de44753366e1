package wedgechain

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
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

	// ctx ends every endpoint's Serve and served waits for them. Close
	// cancels ctx under mu, so no endpoint is added after it.
	ctx    context.Context
	cancel context.CancelFunc
	served sync.WaitGroup

	mu    sync.Mutex
	nodes map[NodeID]*transport.TCP // every node's endpoint, clients included
}

var errClosed = errors.New("wedgechain: cluster closed")

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
		// Clients join as gossip targets in NewClientWith.
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
		nodes: make(map[NodeID]*transport.TCP),
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
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for _, h := range hosted {
		if err := c.host(h); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// host serves h on its own loopback endpoint until Close, configured as
// the deployment binaries configure theirs, and binds its address on every
// endpoint and theirs on it. Callers hold mu or own c exclusively.
func (c *Cluster) host(h core.Handler) error {
	t := transport.NewTCP(h, transport.TCPConfig{
		Listen:    "127.0.0.1:0",
		TickEvery: 5 * time.Millisecond,
		Fault:     c.cfg.Chaos,
		Obs:       c.cfg.Metrics,
	})
	err := t.Listen()
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		t.Serve(c.ctx) // Serve owns teardown, even after a failed Listen
	}()
	if err != nil {
		return err
	}
	c.nodes[h.ID()] = t
	for id, peer := range c.nodes {
		t.SetPeer(id, peer.Addr().String())
		peer.SetPeer(h.ID(), t.Addr().String())
	}
	return nil
}

// Close stops every node's endpoint and waits for each Serve to return.
// The nodes own no goroutine: they run only on their endpoints' turns.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.cancel()
	c.mu.Unlock()
	c.served.Wait()
}

// do runs fn under node id's session mutex, on the caller's goroutine, and
// sends what it returns. fn must not call back into the same node.
func (c *Cluster) do(id NodeID, fn func(now int64) []wire.Envelope) error {
	c.mu.Lock()
	t := c.nodes[id]
	c.mu.Unlock()
	if c.ctx.Err() != nil {
		return errClosed
	}
	t.DoSession(id, fn)
	return nil
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

// RestartEdge revives a killed node as a blank follower — the simulated
// process restart that lost its in-memory state. The node heartbeats with
// no view, the cloud answers with a signed view naming the current
// leader (a new one, re-admitting it, when it is outside the group), and
// certified catch-up rebuilds its mirror; once caught up it is again a
// promotion candidate. It never leads from its blank log.
func (c *Cluster) RestartEdge(id NodeID) error {
	en, ok := c.edges[id]
	if !ok {
		return fmt.Errorf("wedgechain: unknown node %q", id)
	}
	return c.do(id, func(now int64) []wire.Envelope {
		en.Restart(now)
		return nil
	})
}

// ReplicaFrontier reports a node's local block frontier and contiguous
// certified prefix — served blocks on a leader, mirrored blocks on a
// follower. Chaos harnesses poll it to observe catch-up convergence.
func (c *Cluster) ReplicaFrontier(id NodeID) (blocks, certified uint64, err error) {
	en, ok := c.edges[id]
	if !ok {
		return 0, 0, fmt.Errorf("wedgechain: unknown node %q", id)
	}
	err = c.on(id, func() { blocks, certified = en.LogBlocks(), en.CertifiedBlocks() })
	return blocks, certified, err
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

// ClientOptions tunes a session created by NewClientWith.
type ClientOptions struct {
	// Light switches the session into light verification: a get response
	// is accepted on the edge's signature plus the cloud-signed gossiped
	// frontier, and only a seeded random sample of responses (1 in
	// Sample) pays for full structural proof verification. A sampled lie
	// convicts exactly as in full mode — the lazy-trust guarantee is
	// amortized, not weakened. The sampling seed derives from the session
	// name, so distinct sessions audit distinct request subsets while any
	// single run stays reproducible.
	Light bool
	// Sample is the light-mode audit denominator (0 = the client layer's
	// default; 1 audits every response). Ignored unless Light is set.
	Sample int
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
	return c.NewClientWith(name, edgeID, ClientOptions{})
}

// NewClientWith creates a client session with explicit options (light
// verification). NewClient is the zero-options shorthand.
func (c *Cluster) NewClientWith(name string, edgeID NodeID, opts ClientOptions) (*Client, error) {
	if edgeID == "" {
		edgeID = EdgeID(1)
	}
	if _, ok := c.edges[edgeID]; !ok {
		return nil, fmt.Errorf("wedgechain: unknown edge %q (have edge-1..edge-%d)", edgeID, c.cfg.Edges)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return nil, errClosed
	}
	id := NodeID(name)
	if _, dup := c.nodes[id]; dup {
		return nil, fmt.Errorf("wedgechain: duplicate client or node name %q", name)
	}

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
	c.d.Registry.Register(id, k.Pub)

	// Deterministic per-name seed: each light session audits its own
	// request subset, and re-running the same program replays the same
	// audits.
	h := fnv.New64a()
	h.Write([]byte(name))
	session := client.NewSharded(client.Config{
		ID:              id,
		Cloud:           CloudID,
		ProofTimeout:    c.cfg.ProofTimeout.Nanoseconds(),
		FreshnessWindow: c.cfg.FreshnessWindow.Nanoseconds(),
		Session:         c.cfg.SessionConsistency,
		RetryEvery:      c.cfg.RetryEvery.Nanoseconds(),
		MaxAttempts:     c.cfg.MaxAttempts,
		Light:           opts.Light,
		SampleEvery:     opts.Sample,
		SampleSeed:      h.Sum64(),
		Metrics:         c.cfg.Metrics,
	}, ring, k, c.d.Registry)
	cl := newClient(c, id, session)
	for _, cc := range session.Cores() {
		cc.OnPhaseI = cl.onPhaseI
		cc.OnPhaseII = cl.onPhaseII
		cc.OnDone = cl.onDone
	}
	// The session's endpoint knows every peer before the cloud's replay
	// below is its first frame.
	if err := c.host(session); err != nil {
		return nil, err
	}
	c.nodes[CloudID].DoSession(CloudID, func(now int64) []wire.Envelope {
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
	return cl, nil
}
