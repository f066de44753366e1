// Package wedgechain is a trusted edge-cloud data store with asynchronous
// (lazy) trust — a from-scratch implementation of "WedgeChain: A Trusted
// Edge-Cloud Store With Asynchronous (Lazy) Trust" (ICDE 2021).
//
// WedgeChain spans untrusted edge nodes and a trusted cloud node. Writes
// commit at the nearby edge immediately (Phase I commit: the edge's signed
// response is evidence that convicts it if it lies) and are certified
// asynchronously by the cloud (Phase II commit: the cloud signs the block
// digest, and no two clients can ever observe conflicting Phase II state).
// Certification is data-free — only digests cross the expensive edge-cloud
// link. A trusted index, LSMerkle (LSM tree × Merkle tree), serves
// key-value gets from the edge with cryptographic proofs.
//
// This package is the embedding façade: it assembles a full cluster
// (cloud, edges, clients) over an in-process transport and exposes a
// synchronous client API. The building blocks live under internal/: the
// protocol state machines (internal/edge, internal/cloud,
// internal/client), the lazy-certification core (internal/core), the
// LSMerkle structure (internal/mlsm), the discrete-event evaluation
// substrate (internal/sim, internal/bench), and the paper's baselines
// (internal/baseline). The cmd/ binaries deploy the same state machines
// over TCP.
//
// Quickstart:
//
//	cluster, _ := wedgechain.NewCluster(wedgechain.Config{Edges: 1, BatchSize: 4})
//	defer cluster.Close()
//	c, _ := cluster.NewClient("sensor-1", "edge-1")
//	receipt, _ := c.Add([]byte("reading: 21.7C"))      // Phase I commit
//	_ = receipt.WaitPhaseII(5 * time.Second)            // cloud certified
//	val, found, _, _ := c.Get([]byte("some-key"))       // verified read
//	_ = val
//	_ = found
package wedgechain

import (
	"fmt"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// Phase re-exports the commit phase vocabulary.
type Phase = core.Phase

// Commit phases.
const (
	PhaseNone = core.PhaseNone
	PhaseI    = core.PhaseI
	PhaseII   = core.PhaseII
)

// Fault re-exports the byzantine fault-injection hooks of the edge node,
// letting applications and examples demonstrate detection and punishment.
type Fault = edge.Fault

// ChaosNet re-exports the deterministic chaos network: seeded, per-link
// fault schedules (drop, delay, duplicate, partition) applied to every
// frame the cluster transport carries. Build one with NewChaos, add rules
// or partitions, and pass it as Config.Chaos.
type ChaosNet = faultnet.Net

// ChaosRule re-exports one chaos schedule entry: a (from, to, window)
// match plus the link fault rates to apply.
type ChaosRule = faultnet.Rule

// LinkFaults re-exports the per-link fault rates (drop and duplicate
// probabilities, delay bounds) a ChaosRule applies.
type LinkFaults = faultnet.LinkFaults

// NewChaos constructs a chaos network whose schedules derive entirely
// from seed — the same seed replays the same faults.
func NewChaos(seed int64) *ChaosNet { return faultnet.New(seed) }

// NodeID re-exports node identities.
type NodeID = wire.NodeID

// Block re-exports the log block type returned by reads.
type Block = wire.Block

// KV re-exports the key-version-value record returned by verified scans.
type KV = wire.KV

// Verdict re-exports the cloud's dispute ruling.
type Verdict = wire.Verdict

// Config parameterizes a cluster.
type Config struct {
	// Edges is the number of edge nodes ("edge-1".."edge-N"). Each edge
	// owns one partition; clients bind to a single edge (Section III)
	// unless Shards spreads the keyspace across several of them.
	Edges int
	// Shards is the number of keyspace shards. When > 1, the first
	// Shards edges each own a hash partition of the keyspace (Edges is
	// raised to Shards if smaller), the cloud signs an explicit shard
	// map, and NewClient defaults to a shard-routed session that
	// multiplexes every shard: Put/Get route by key, while the
	// position-based log API (Add, Read, Reserve) binds to the session's
	// home shard. Each shard keeps its own log, LSMerkle index, and
	// lazy-certification pipeline, so a convicted shard never disturbs
	// its siblings. 0 or 1 keeps the paper's single-partition deployment.
	Shards int
	// ReplicasPerShard sizes each edge's replica group: one leader plus
	// ReplicasPerShard-1 followers named "edge-N.r1", "edge-N.r2", …
	// (FollowerID). Followers mirror the leader's frozen-block log and
	// audit it against the cloud's certificates; the cloud tracks
	// liveness through signed heartbeats and — on leader crash,
	// certification stall, or conviction — signs a leadership transfer
	// promoting the follower with the longest certified prefix, so the
	// shard keeps serving without an outage. 0 or 1 keeps unreplicated
	// shards. Follower faults inject through EdgeFaults keyed by the
	// follower id.
	ReplicasPerShard int
	// LeaseTimeout is how long the cloud tolerates leader-heartbeat
	// silence before transferring leadership (default 1s; replicated
	// shards only).
	LeaseTimeout time.Duration
	// CertTimeout is how long a replicated-but-uncertified backlog may
	// stall before the cloud transfers leadership (default 3s).
	CertTimeout time.Duration
	// HeartbeatEvery overrides the replica heartbeat period (default
	// LeaseTimeout/4; replicated shards only). Must stay shorter than
	// LeaseTimeout or a live leader would look dead to the cloud.
	HeartbeatEvery time.Duration
	// BatchSize is the entries per block (default 100).
	BatchSize int
	// FlushEvery force-cuts partial blocks after this idle duration
	// (default 50ms; 0 keeps the default — use NoFlush to disable).
	FlushEvery time.Duration
	// NoFlush disables partial-block flushing.
	NoFlush bool
	// L0Threshold, LevelThresholds and PageCap configure LSMerkle
	// (defaults: 10, [10, 100, 1000], BatchSize).
	L0Threshold     int
	LevelThresholds []int
	PageCap         int
	// GossipEvery is the cloud's omission-detection gossip period
	// (default 1s; 0 keeps the default).
	GossipEvery time.Duration
	// ProofTimeout is how long clients wait for Phase II before filing
	// a dispute (default 10s).
	ProofTimeout time.Duration
	// FreshnessWindow bounds get staleness (Section V-D); 0 disables.
	FreshnessWindow time.Duration
	// SessionConsistency enables the paper's clock-free alternative to
	// the freshness window (Section V-D): clients remember the newest
	// snapshot they observed and reject any get served from an older
	// one, yielding monotonic reads.
	SessionConsistency bool
	// RetryEvery enables client transport retries: an operation the edge
	// never acknowledged is re-sent with exponential backoff and jitter,
	// and settles with an unavailable error after MaxAttempts total
	// sends. 0 disables — unanswered ops then wait out the proof timeout.
	RetryEvery time.Duration
	// MaxAttempts bounds total sends per operation when RetryEvery > 0
	// (default 4, counting the initial send).
	MaxAttempts int
	// MaxUncertified caps a leader's uncertified block backlog: past the
	// cap new writes are shed (not acknowledged) until certification
	// catches up, turning a degraded cloud link into bounded
	// backpressure instead of an unbounded Phase II promise. Shed writes
	// are answered with a signed overload signal carrying a retry-after
	// hint; clients pace their re-sends by it and surface ErrOverloaded
	// if the edge never reopens. 0 disables.
	MaxUncertified int
	// Latency injects one-way delay between any two nodes; nil = none.
	// Use it to emulate WAN topologies in-process.
	Latency func(from, to NodeID) time.Duration
	// Chaos, when set, subjects every frame the in-process transport
	// carries to the chaos network's seeded fault schedules — drops,
	// delays, duplicates and partitions per link. Combine with
	// RetryEvery, MaxUncertified and replicated shards to exercise the
	// healing paths; see internal/integration/chaos_test.go.
	Chaos *ChaosNet
	// EdgeFaults makes selected edges byzantine (for demonstrations and
	// tests of the detect-and-punish machinery).
	EdgeFaults map[NodeID]*Fault
	// Metrics is the observability registry every node in the cluster
	// registers its wedge_* series into — scrape it with obs.StartServer
	// or embed its snapshot via Cluster.Metrics(). Nil gets a private
	// per-cluster registry, so instrumentation (including the trust-lag
	// histograms) is always on and Cluster.Metrics() always works.
	Metrics *obs.Registry
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Edges < c.Shards {
		c.Edges = c.Shards
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = time.Second
	}
	if c.CertTimeout <= 0 {
		c.CertTimeout = 3 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 50 * time.Millisecond
	}
	if c.NoFlush {
		c.FlushEvery = 0
	}
	if c.L0Threshold <= 0 {
		c.L0Threshold = 10
	}
	if len(c.LevelThresholds) == 0 {
		c.LevelThresholds = []int{10, 100, 1000}
	}
	if c.PageCap <= 0 {
		c.PageCap = c.BatchSize
	}
	if c.GossipEvery <= 0 {
		c.GossipEvery = time.Second
	}
	if c.ProofTimeout <= 0 {
		c.ProofTimeout = 10 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Validate rejects configurations fill() cannot repair — combinations
// that would construct a cluster which silently misbehaves. NewCluster
// calls it before applying defaults.
func (c *Config) Validate() error {
	if c.ReplicasPerShard < 0 {
		return fmt.Errorf("wedgechain: ReplicasPerShard must be >= 0, got %d", c.ReplicasPerShard)
	}
	if c.ReplicasPerShard > 1 && c.CertTimeout < 0 {
		return fmt.Errorf("wedgechain: replicated shards require a certification-stall timeout; CertTimeout %v disables the detector that replaces a leader which replicates but never certifies", c.CertTimeout)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"LeaseTimeout", c.LeaseTimeout},
		{"CertTimeout", c.CertTimeout},
		{"HeartbeatEvery", c.HeartbeatEvery},
		{"FlushEvery", c.FlushEvery},
		{"GossipEvery", c.GossipEvery},
		{"ProofTimeout", c.ProofTimeout},
		{"FreshnessWindow", c.FreshnessWindow},
		{"RetryEvery", c.RetryEvery},
	} {
		if d.v < 0 {
			return fmt.Errorf("wedgechain: %s must not be negative, got %v", d.name, d.v)
		}
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("wedgechain: MaxAttempts must be >= 0, got %d", c.MaxAttempts)
	}
	if c.MaxUncertified < 0 {
		return fmt.Errorf("wedgechain: MaxUncertified must be >= 0, got %d", c.MaxUncertified)
	}
	lease := c.LeaseTimeout
	if lease <= 0 {
		lease = time.Second
	}
	if c.HeartbeatEvery > 0 && c.HeartbeatEvery >= lease {
		return fmt.Errorf("wedgechain: HeartbeatEvery (%v) must be shorter than LeaseTimeout (%v) — a live leader would miss its lease on schedule alone", c.HeartbeatEvery, lease)
	}
	return nil
}
