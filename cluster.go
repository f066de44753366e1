package wedgechain

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/edge"
	"wedgechain/internal/obs"
	"wedgechain/internal/shard"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// CloudID is the trusted cloud node's identity in façade clusters.
const CloudID = NodeID("cloud")

// EdgeID returns the identity of the i-th edge node (1-based).
func EdgeID(i int) NodeID { return NodeID(fmt.Sprintf("edge-%d", i)) }

// FollowerID returns the identity of the k-th follower replica (1-based)
// of the i-th edge's chain.
func FollowerID(i, k int) NodeID { return NodeID(fmt.Sprintf("edge-%d.r%d", i, k)) }

// Cluster is an in-process WedgeChain deployment: one trusted cloud node,
// one or more untrusted edge nodes, and any number of clients, connected
// by the channel transport (optionally with injected WAN latency).
type Cluster struct {
	cfg Config
	reg *wcrypto.Registry
	net *transport.Local

	// shardMap routes keys across the first cfg.Shards edges; wireMap is
	// its cloud-signed serialization, verified by every client session.
	shardMap *shard.Map
	wireMap  *wire.ShardMap

	mu      sync.Mutex
	keys    map[NodeID]wcrypto.KeyPair
	cloud   *cloud.Node
	edges   map[NodeID]*edge.Node
	clients map[NodeID]*Client
	closed  bool
}

// NewCluster assembles and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	c := &Cluster{
		cfg:     cfg,
		reg:     wcrypto.NewRegistry(),
		keys:    make(map[NodeID]wcrypto.KeyPair),
		edges:   make(map[NodeID]*edge.Node),
		clients: make(map[NodeID]*Client),
	}
	c.net = transport.NewLocal(transport.LocalConfig{
		TickEvery: 5 * time.Millisecond,
		Latency:   cfg.Latency,
		Fault:     cfg.Chaos,
		// Pre-verify signatures in parallel in front of every node so
		// the single-threaded state machines spend their time on
		// protocol work, not Ed25519.
		Registry:      c.reg,
		VerifyWorkers: -1, // negative = GOMAXPROCS, sized by the pool
	})
	// The chaos net shapes every link of the shared in-process transport,
	// and every node verifies against the one key registry, so their
	// counters carry the cluster-wide label rather than a node's.
	cfg.Chaos.AttachMetrics(cfg.Metrics, "cluster")
	c.reg.AttachMetrics(cfg.Metrics, "cluster")

	ck, err := wcrypto.GenerateKey(CloudID)
	if err != nil {
		return nil, err
	}
	c.keys[CloudID] = ck
	c.reg.Register(CloudID, ck.Pub)

	edgeIDs := make([]NodeID, 0, cfg.Edges)
	for i := 1; i <= cfg.Edges; i++ {
		id := EdgeID(i)
		k, err := wcrypto.GenerateKey(id)
		if err != nil {
			return nil, err
		}
		c.keys[id] = k
		c.reg.Register(id, k.Pub)
		edgeIDs = append(edgeIDs, id)
	}

	// Replica groups: each edge's chain gets ReplicasPerShard-1 follower
	// nodes with their own identities and keys. The chain identity stays
	// the initial leader's id; followers mirror its log and stand by for
	// a cloud-signed promotion.
	followers := make(map[NodeID][]NodeID)
	if cfg.ReplicasPerShard > 1 {
		for i := 1; i <= cfg.Edges; i++ {
			lid := EdgeID(i)
			for k := 1; k < cfg.ReplicasPerShard; k++ {
				fid := FollowerID(i, k)
				fk, err := wcrypto.GenerateKey(fid)
				if err != nil {
					return nil, err
				}
				c.keys[fid] = fk
				c.reg.Register(fid, fk.Pub)
				followers[lid] = append(followers[lid], fid)
			}
		}
	}

	// The shard map spans the first cfg.Shards edges. The cloud signs it
	// so clients can verify their routing table came from the trusted
	// party, not from an edge steering traffic toward itself.
	sm, err := shard.New(edgeIDs[:cfg.Shards])
	if err != nil {
		return nil, err
	}
	c.shardMap = sm
	c.wireMap = sm.Wire(1)
	if cfg.ReplicasPerShard > 1 {
		c.wireMap.Followers = make([][]NodeID, len(c.wireMap.Edges))
		for i, e := range c.wireMap.Edges {
			c.wireMap.Followers[i] = append([]NodeID(nil), followers[e]...)
		}
	}
	c.wireMap.CloudSig = wcrypto.SignMsg(ck, c.wireMap)

	c.cloud = cloud.New(cloud.Config{
		ID:           CloudID,
		Levels:       len(cfg.LevelThresholds),
		PageCap:      cfg.PageCap,
		GossipEvery:  cfg.GossipEvery.Nanoseconds(),
		LeaseTimeout: cfg.LeaseTimeout.Nanoseconds(),
		CertTimeout:  cfg.CertTimeout.Nanoseconds(),
		Metrics:      cfg.Metrics,
		// Gossip recipients are added as clients join; the cloud config
		// is static, so gossip goes to edges and clients pull via their
		// edge. For direct gossip, clients are registered below.
	}, ck, c.reg)
	if cfg.ReplicasPerShard > 1 {
		// Declare the groups before the transport starts, so the failure
		// detectors know every chain from the first tick.
		for _, lid := range edgeIDs {
			c.cloud.RegisterGroup(lid, lid, followers[lid])
		}
	}
	c.net.Add(c.cloud)

	// Heartbeat at a quarter of the lease so a live leader can never be
	// mistaken for a dead one by scheduling jitter alone.
	var heartbeatEvery int64
	if cfg.ReplicasPerShard > 1 {
		heartbeatEvery = (cfg.LeaseTimeout / 4).Nanoseconds()
		if cfg.HeartbeatEvery > 0 {
			heartbeatEvery = cfg.HeartbeatEvery.Nanoseconds()
		}
	}
	for _, id := range edgeIDs {
		ecfg := edge.Config{
			ID:              id,
			Cloud:           CloudID,
			BatchSize:       cfg.BatchSize,
			FlushEvery:      cfg.FlushEvery.Nanoseconds(),
			L0Threshold:     cfg.L0Threshold,
			LevelThresholds: cfg.LevelThresholds,
			Fault:           cfg.EdgeFaults[id],
			Followers:       followers[id],
			HeartbeatEvery:  heartbeatEvery,
			MaxUncertified:  cfg.MaxUncertified,
			Metrics:         cfg.Metrics,
		}
		if err := ecfg.Validate(); err != nil {
			return nil, err
		}
		en := edge.New(ecfg, c.keys[id], c.reg)
		c.edges[id] = en
		c.net.Add(en)
		for _, fid := range followers[id] {
			fcfg := edge.Config{
				ID:              fid,
				Chain:           id,
				Follower:        true,
				Cloud:           CloudID,
				BatchSize:       cfg.BatchSize,
				FlushEvery:      cfg.FlushEvery.Nanoseconds(),
				L0Threshold:     cfg.L0Threshold,
				LevelThresholds: cfg.LevelThresholds,
				Fault:           cfg.EdgeFaults[fid],
				HeartbeatEvery:  heartbeatEvery,
				MaxUncertified:  cfg.MaxUncertified,
				Metrics:         cfg.Metrics,
			}
			if err := fcfg.Validate(); err != nil {
				return nil, err
			}
			fn := edge.New(fcfg, c.keys[fid], c.reg)
			c.edges[fid] = fn
			c.net.Add(fn)
		}
	}
	return c, nil
}

// Close stops the cluster's goroutines. Every one belongs to the
// transport: the nodes themselves run only on its turns.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.net.Close()
}

// Punished reports whether the cloud has convicted and banned edgeID,
// with the conviction reason.
func (c *Cluster) Punished(edgeID NodeID) (string, bool) {
	type result struct {
		reason string
		ok     bool
	}
	ch := make(chan result, 1)
	ok := c.net.Do(CloudID, func(now int64) []wire.Envelope {
		r, banned := c.cloud.Flagged(edgeID)
		ch <- result{r, banned}
		return nil
	})
	if !ok {
		return "", false
	}
	r := <-ch
	return r.reason, r.ok
}

// Verdicts returns all guilty verdicts the cloud has issued.
func (c *Cluster) Verdicts() []Verdict {
	ch := make(chan []Verdict, 1)
	if !c.net.Do(CloudID, func(now int64) []wire.Envelope {
		ch <- append([]Verdict(nil), c.cloud.Punishments().Verdicts()...)
		return nil
	}) {
		return nil
	}
	return <-ch
}

// VerdictsFor returns the guilty verdicts issued against one edge — in a
// sharded cluster, the conviction history of that shard alone.
func (c *Cluster) VerdictsFor(edgeID NodeID) []Verdict {
	ch := make(chan []Verdict, 1)
	if !c.net.Do(CloudID, func(now int64) []wire.Envelope {
		ch <- c.cloud.VerdictsFor(edgeID)
		return nil
	}) {
		return nil
	}
	return <-ch
}

// Metrics returns the registry holding every node's wedge_* series —
// pass it to obs.StartServer to scrape the cluster, or read quantiles
// (e.g. the wedge_trust_lag_seconds histogram) directly. Always non-nil.
func (c *Cluster) Metrics() *obs.Registry { return c.cfg.Metrics }

// Shards returns the cluster's shard count.
func (c *Cluster) Shards() int { return c.shardMap.Shards() }

// ShardMap returns the cloud-signed shard map distributed to clients.
func (c *Cluster) ShardMap() *wire.ShardMap { return c.wireMap }

// EdgeStats returns one edge node's operational counters, read on that
// edge's own goroutine. In a sharded cluster this is the per-shard view:
// writes, blocks cut, certifications, reads, and merges for that shard
// alone.
func (c *Cluster) EdgeStats(edgeID NodeID) (edge.Stats, error) {
	c.mu.Lock()
	en, ok := c.edges[edgeID]
	c.mu.Unlock()
	if !ok {
		return edge.Stats{}, fmt.Errorf("wedgechain: unknown edge %q (have edge-1..edge-%d)", edgeID, c.cfg.Edges)
	}
	ch := make(chan edge.Stats, 1)
	if !c.net.Do(edgeID, func(now int64) []wire.Envelope {
		ch <- en.Stats()
		return nil
	}) {
		return edge.Stats{}, fmt.Errorf("wedgechain: cluster closed")
	}
	return <-ch, nil
}

// KillEdge simulates a process crash of one node — leader or follower:
// the node stops answering anything, including its heartbeats. In a
// replicated cluster the cloud notices the silence (or the certification
// stall) and transfers leadership to the best surviving follower; clients
// re-route on the signed transfer without failing their in-flight
// operations.
func (c *Cluster) KillEdge(id NodeID) error {
	c.mu.Lock()
	en, ok := c.edges[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("wedgechain: unknown node %q", id)
	}
	if !c.net.Do(id, func(now int64) []wire.Envelope {
		en.Kill()
		return nil
	}) {
		return fmt.Errorf("wedgechain: cluster closed")
	}
	return nil
}

// RestartEdge revives a killed node as a blank follower — the simulated
// process restart that lost its in-memory state. The node heartbeats, the
// cloud re-admits it with a signed GroupJoin naming the current leader,
// and certified catch-up rebuilds its mirror; once caught up it is again
// a promotion candidate.
func (c *Cluster) RestartEdge(id NodeID) error {
	c.mu.Lock()
	en, ok := c.edges[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("wedgechain: unknown node %q", id)
	}
	if !c.net.Do(id, func(now int64) []wire.Envelope {
		en.Restart(now)
		return nil
	}) {
		return fmt.Errorf("wedgechain: cluster closed")
	}
	return nil
}

// ReplicaFrontier reports a node's local block frontier and contiguous
// certified prefix — served blocks on a leader, mirrored blocks on a
// follower. Chaos harnesses poll it to observe catch-up convergence.
func (c *Cluster) ReplicaFrontier(id NodeID) (blocks, certified uint64, err error) {
	c.mu.Lock()
	en, ok := c.edges[id]
	c.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("wedgechain: unknown node %q", id)
	}
	type frontier struct{ blocks, certified uint64 }
	ch := make(chan frontier, 1)
	if !c.net.Do(id, func(now int64) []wire.Envelope {
		ch <- frontier{en.LogBlocks(), en.CertifiedBlocks()}
		return nil
	}) {
		return 0, 0, fmt.Errorf("wedgechain: cluster closed")
	}
	f := <-ch
	return f.blocks, f.certified, nil
}

// ChainLeader reports which node the cloud currently recognizes as the
// leader of chain (the chain id is the initial leader's id, e.g.
// "edge-1"). Unreplicated chains lead themselves.
func (c *Cluster) ChainLeader(chain NodeID) NodeID {
	ch := make(chan NodeID, 1)
	if !c.net.Do(CloudID, func(now int64) []wire.Envelope {
		ch <- c.cloud.ChainLeader(chain)
		return nil
	}) {
		return ""
	}
	return <-ch
}

// ChainEpoch reports the chain's current leadership epoch (0 until the
// first transfer).
func (c *Cluster) ChainEpoch(chain NodeID) uint64 {
	ch := make(chan uint64, 1)
	if !c.net.Do(CloudID, func(now int64) []wire.Envelope {
		ch <- c.cloud.ChainEpoch(chain)
		return nil
	}) {
		return 0
	}
	return <-ch
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
	// Sample is the light-mode audit denominator (default 16; 1 audits
	// every response). Ignored unless Light is set.
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("wedgechain: cluster closed")
	}
	if edgeID == "" {
		edgeID = EdgeID(1)
	}
	if _, ok := c.edges[edgeID]; !ok {
		return nil, fmt.Errorf("wedgechain: unknown edge %q (have edge-1..edge-%d)", edgeID, c.cfg.Edges)
	}
	id := NodeID(name)
	if _, dup := c.clients[id]; dup {
		return nil, fmt.Errorf("wedgechain: duplicate client %q", name)
	}

	// Trust the routing table only after checking the cloud's signature
	// on the shard map — an edge must not be able to steer keys.
	var ring *shard.Map
	if c.cfg.Shards > 1 {
		if err := wcrypto.VerifyMsg(c.reg, CloudID, c.wireMap, c.wireMap.CloudSig); err != nil {
			return nil, fmt.Errorf("wedgechain: shard map signature: %w", err)
		}
		var err error
		ring, err = shard.FromWire(c.wireMap)
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
	c.keys[id] = k
	c.reg.Register(id, k.Pub)

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
	}, ring, k, c.reg)
	cl := newClient(c, id, session)
	for _, core := range session.Cores() {
		core.OnPhaseI = cl.onPhaseI
		core.OnPhaseII = cl.onPhaseII
		core.OnDone = cl.onDone
	}
	c.clients[id] = cl
	c.net.Add(&clientHandler{cl})
	c.net.Do(CloudID, func(now int64) []wire.Envelope {
		c.cloud.AddGossipTarget(id)
		// Replay existing convictions to the new session: the verdict
		// broadcast at conviction time predates this client, and banned
		// edges are excluded from gossip, so without this a late joiner
		// would keep trusting an already-frozen shard.
		var out []wire.Envelope
		for _, v := range c.cloud.Punishments().Verdicts() {
			v := v
			out = append(out, wire.Envelope{From: CloudID, To: id, Msg: &v})
		}
		return out
	})
	return cl, nil
}

// clientHandler adapts the façade client for transport registration,
// keeping the sync API off the Handler surface.
type clientHandler struct{ c *Client }

func (h *clientHandler) ID() wire.NodeID { return h.c.id }
func (h *clientHandler) Receive(now int64, env wire.Envelope) []wire.Envelope {
	return h.c.session.Receive(now, env)
}
func (h *clientHandler) Tick(now int64) []wire.Envelope { return h.c.session.Tick(now) }
