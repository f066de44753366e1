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
// (cloud, edges, clients) inside one process, each node on its own
// loopback TCP endpoint, and exposes a synchronous client API. The
// building blocks live under internal/: the protocol state machines
// (internal/edge, internal/cloud, internal/client), the
// lazy-certification core (internal/core), the LSMerkle structure
// (internal/mlsm), the discrete-event evaluation substrate
// (internal/sim, internal/bench), and the paper's baselines
// (internal/baseline). The cmd/ binaries deploy the same state machines
// over the same transport, one process per node.
//
// Quickstart (every Config knob left zero takes its layer's default, so
// this cluster cuts blocks of 4 and flushes a partial one after the edge's
// default idle period):
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

	"wedgechain/internal/cloud"
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

// Config parameterizes a cluster. A zero knob takes its layer's default
// (internal/edge, internal/cloud, internal/client); a negative FlushEvery
// or GossipEvery turns that timer off.
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
	// silence before transferring leadership (replicated shards only).
	// A replicated-but-uncertified backlog may stall for three of them
	// before the cloud transfers leadership too.
	LeaseTimeout time.Duration
	// HeartbeatEvery is the replica heartbeat period (0 = LeaseTimeout/4;
	// replicated shards only). Must stay shorter than LeaseTimeout or a
	// live leader would look dead to the cloud.
	HeartbeatEvery time.Duration
	// BatchSize is the entries per block.
	BatchSize int
	// FlushEvery force-cuts partial blocks after this idle duration, and a
	// block holding a run ack ten of them after that ack (negative
	// disables both, and run acks: every Put then waits for its block).
	FlushEvery time.Duration
	// L0Threshold, LevelThresholds and PageCap configure LSMerkle
	// (PageCap 0 = BatchSize).
	L0Threshold     int
	LevelThresholds []int
	PageCap         int
	// GossipEvery is the cloud's omission-detection gossip period
	// (negative disables).
	GossipEvery time.Duration
	// ProofTimeout is how long clients wait for Phase II before filing
	// a dispute. It is also the budget of an operation the edge never
	// answers: clients re-send it at an eighth, a quarter and half of the
	// timeout, and it settles with ErrUnavailable when the timeout runs
	// out (ErrOverloaded if the edge shed it).
	ProofTimeout time.Duration
	// FreshnessWindow bounds get staleness (Section V-D); 0 disables.
	FreshnessWindow time.Duration
	// SessionConsistency enables the paper's clock-free alternative to
	// the freshness window (Section V-D): clients remember the newest
	// snapshot they observed and reject any get served from an older
	// one, yielding monotonic reads.
	SessionConsistency bool
	// MaxUncertified caps a leader's uncertified block backlog: past the
	// cap new writes are shed (not acknowledged) until certification
	// catches up, turning a degraded cloud link into bounded
	// backpressure instead of an unbounded Phase II promise. Shed writes
	// are answered with a signed overload signal carrying a retry-after
	// hint; clients pace their re-sends by it and surface ErrOverloaded
	// if the edge does not reopen within the proof timeout. 0 disables.
	MaxUncertified int
	// Chaos, when set, subjects every frame between two nodes to the
	// chaos network's seeded fault schedules — drops, delays, duplicates
	// and partitions per link. A WAN is a delay-only rule on the links to
	// and from CloudID. Combine with MaxUncertified and replicated
	// shards to exercise the healing paths; see
	// internal/integration/chaos_test.go.
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

// fill applies the rules that span layers; every other zero knob passes
// through to its layer, which owns the default.
func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Edges < c.Shards {
		c.Edges = c.Shards
	}
	// The cloud merges the pages the edges cut and sizes its levels by
	// the edges' thresholds, so both read the edge layer's values.
	def := edge.Defaults()
	if c.BatchSize <= 0 {
		c.BatchSize = def.BatchSize
	}
	if len(c.LevelThresholds) == 0 {
		c.LevelThresholds = def.LevelThresholds
	}
	if c.PageCap <= 0 {
		c.PageCap = c.BatchSize
	}
	if c.HeartbeatEvery == 0 {
		// A quarter of the lease, so a live leader can never be mistaken
		// for a dead one by scheduling jitter alone.
		c.HeartbeatEvery = c.lease() / 4
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// lease is the cloud's leader lease: LeaseTimeout, or the cloud layer's
// default.
func (c *Config) lease() time.Duration {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	return time.Duration(cloud.Defaults().LeaseTimeout)
}

// Validate rejects configurations fill() cannot repair — combinations
// that would construct a cluster which silently misbehaves. NewCluster
// calls it before applying defaults.
func (c *Config) Validate() error {
	if c.ReplicasPerShard < 0 {
		return fmt.Errorf("wedgechain: ReplicasPerShard must be >= 0, got %d", c.ReplicasPerShard)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"HeartbeatEvery", c.HeartbeatEvery},
		{"ProofTimeout", c.ProofTimeout},
		{"FreshnessWindow", c.FreshnessWindow},
	} {
		if d.v < 0 {
			return fmt.Errorf("wedgechain: %s must not be negative, got %v", d.name, d.v)
		}
	}
	// The cloud owns the lease's range: its stall bound is a multiple of it.
	lease := cloud.Config{ID: CloudID, LeaseTimeout: c.LeaseTimeout.Nanoseconds()}
	if err := lease.Validate(); err != nil {
		return fmt.Errorf("wedgechain: %w", err)
	}
	if c.MaxUncertified < 0 {
		return fmt.Errorf("wedgechain: MaxUncertified must be >= 0, got %d", c.MaxUncertified)
	}
	if c.HeartbeatEvery > 0 && c.HeartbeatEvery >= c.lease() {
		return fmt.Errorf("wedgechain: HeartbeatEvery (%v) must be shorter than LeaseTimeout (%v) — a live leader would miss its lease on schedule alone", c.HeartbeatEvery, c.lease())
	}
	return nil
}
