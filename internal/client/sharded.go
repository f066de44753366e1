package client

import (
	"bytes"
	"fmt"
	"sort"

	"wedgechain/internal/core"
	"wedgechain/internal/shard"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Sharded implements core.Handler so all transports can drive it.
var _ core.Handler = (*Sharded)(nil)

// Sharded multiplexes one client session across every shard of a
// partitioned keyspace. It owns one Core per edge in the shard map; each
// Core runs its own lazy-verify pipeline (Phase I/II tracking, dispute
// filing, gossip, session watermarks) against its edge, fully independent
// of its siblings — a backlog or conviction on one shard never blocks
// operations on another.
//
// Key-value operations (Put, PutBatch, Get) route by key through the
// stable partitioner. Log operations (Add, AddAt, Reserve, Read) are
// position-based and therefore bind to the session's home shard — the
// shard the client's own identity hashes to — so reservations, appends
// and block reads always address one coherent log.
//
// Like Core, Sharded is not safe for concurrent use: drive it from a
// single goroutine (the transport's node goroutine).
type Sharded struct {
	ring    *shard.Map
	cores   []*Core               // shard order
	byEdge  map[wire.NodeID]*Core // by serving node, grows as leaders change
	byChain map[wire.NodeID]*Core // by chain identity, immutable
	home    int
}

// NewSharded constructs a sharded client session over the edges in ring.
// cfg.Edge is ignored; every other Config field applies to each per-shard
// Core. The ring's edges at construction time are the per-shard chain
// identities; leadership transfers may later rebind a core to a promoted
// replica without changing its chain.
func NewSharded(cfg Config, ring *shard.Map, key wcrypto.KeyPair, reg *wcrypto.Registry) *Sharded {
	s := &Sharded{
		ring:    ring,
		cores:   make([]*Core, ring.Shards()),
		byEdge:  make(map[wire.NodeID]*Core, ring.Shards()),
		byChain: make(map[wire.NodeID]*Core, ring.Shards()),
		home:    shard.Of([]byte(cfg.ID), ring.Shards()),
	}
	for i, edge := range ring.Edges() {
		c := cfg // copy
		c.Edge = edge
		c.Chain = edge
		cc := New(c, key, reg)
		s.cores[i] = cc
		s.byEdge[edge] = cc
		s.byChain[edge] = cc
	}
	return s
}

// ID returns the client identity (shared by every per-shard core).
func (s *Sharded) ID() wire.NodeID { return s.cores[0].ID() }

// Map returns the routing table.
func (s *Sharded) Map() *shard.Map { return s.ring }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.cores) }

// Cores returns the per-shard cores in shard order (for wiring callbacks
// and instrumentation). The slice is shared; treat it as read-only.
func (s *Sharded) Cores() []*Core { return s.cores }

// CoreFor returns the core owning key's shard.
func (s *Sharded) CoreFor(key []byte) *Core {
	return s.cores[shard.Of(key, len(s.cores))]
}

// CoreAt returns the core for shard i.
func (s *Sharded) CoreAt(i int) *Core { return s.cores[i] }

// Home returns the core of the session's home shard, which serves the
// position-based log API.
func (s *Sharded) Home() *Core { return s.cores[s.home] }

// EdgeFor returns the edge owning key.
func (s *Sharded) EdgeFor(key []byte) wire.NodeID { return s.ring.EdgeFor(key) }

// Put routes a key-value write to the key's shard.
func (s *Sharded) Put(now int64, key, value []byte) (*Op, []wire.Envelope) {
	return s.CoreFor(key).Put(now, key, value)
}

// Get routes a key-value lookup to the key's shard.
func (s *Sharded) Get(now int64, key []byte) (*Op, []wire.Envelope) {
	return s.CoreFor(key).Get(now, key)
}

// PutBatch splits a batch of key-value writes into one per-shard batch
// each carried in a single request, preserving the input's op order in
// the returned slice.
func (s *Sharded) PutBatch(now int64, keys, values [][]byte) ([]*Op, []wire.Envelope) {
	if len(s.cores) == 1 {
		return s.cores[0].PutBatch(now, keys, values)
	}
	n := len(s.cores)
	idxs := make([][]int, n)
	for i, k := range keys {
		sh := shard.Of(k, n)
		idxs[sh] = append(idxs[sh], i)
	}
	ops := make([]*Op, len(keys))
	var envs []wire.Envelope
	for sh, members := range idxs {
		if len(members) == 0 {
			continue
		}
		ks := make([][]byte, len(members))
		vs := make([][]byte, len(members))
		for j, i := range members {
			ks[j] = keys[i]
			vs[j] = values[i]
		}
		shOps, shEnvs := s.cores[sh].PutBatch(now, ks, vs)
		for j, i := range members {
			ops[i] = shOps[j]
		}
		envs = append(envs, shEnvs...)
	}
	return ops, envs
}

// Scan scatter-gathers a verified range scan across every shard: keys
// hash-route to shards, so a key range is spread over all of them and
// each shard's edge must prove completeness for its own slice. One op is
// returned per shard, in shard order; when all have settled,
// MergeScanResults folds their verified results into one globally ordered
// slice. Each per-shard op carries the full limit (a single shard could
// in principle own the limit's worth of smallest keys), and the gather
// side truncates again after the merge.
func (s *Sharded) Scan(now int64, start, end []byte, limit int) ([]*Op, []wire.Envelope) {
	ops := make([]*Op, len(s.cores))
	var envs []wire.Envelope
	for i, cc := range s.cores {
		op, e := cc.Scan(now, start, end, limit)
		ops[i] = op
		envs = append(envs, e...)
	}
	return ops, envs
}

// MergeScanResults merges settled per-shard scan results into one
// globally key-ordered slice, truncated to limit when limit > 0.
func MergeScanResults(ops []*Op, limit int) []wire.KV {
	slices := make([][]wire.KV, len(ops))
	for i, op := range ops {
		slices[i] = op.ScanKVs
	}
	return MergeScanKVs(slices, limit)
}

// MergeScanKVs merges per-shard verified KV slices into one globally
// key-ordered slice, truncated to limit when limit > 0. Shards partition
// the keyspace by hash, so the slices are disjoint and a plain sort is a
// correct k-way merge — the one place that invariant is encoded.
func MergeScanKVs(slices [][]wire.KV, limit int) []wire.KV {
	var all []wire.KV
	for _, s := range slices {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// Add appends a payload to the home shard's log.
func (s *Sharded) Add(now int64, payload []byte) (*Op, []wire.Envelope) {
	return s.Home().Add(now, payload)
}

// AddAt appends a payload at a reserved home-shard log position.
func (s *Sharded) AddAt(now int64, payload []byte, pos uint64) (*Op, []wire.Envelope) {
	return s.Home().AddAt(now, payload, pos)
}

// Reserve requests reserved positions on the home shard's log.
func (s *Sharded) Reserve(now int64, count uint32) ([]wire.Envelope, error) {
	return s.Home().Reserve(now, count)
}

// SetReserveHandler registers the reservation callback on the home shard.
func (s *Sharded) SetReserveHandler(f Reservations) { s.Home().SetReserveHandler(f) }

// Read fetches block bid from the home shard's log.
func (s *Sharded) Read(now int64, bid uint64) (*Op, []wire.Envelope) {
	return s.Home().Read(now, bid)
}

// ReadFrom fetches block bid from a specific shard's log.
func (s *Sharded) ReadFrom(now int64, edge wire.NodeID, bid uint64) (*Op, []wire.Envelope, error) {
	c, ok := s.byEdge[edge]
	if !ok {
		return nil, nil, fmt.Errorf("client: edge %q is not in the shard map", edge)
	}
	op, envs := c.Read(now, bid)
	return op, envs, nil
}

// Pending reports the number of unsettled operations per shard edge —
// the backlog surface a monitoring layer watches to see one slow or
// convicted shard without conflating it with its siblings.
func (s *Sharded) Pending() map[wire.NodeID]int {
	out := make(map[wire.NodeID]int, len(s.cores))
	for i, c := range s.cores {
		out[s.ring.EdgeAt(i)] = c.Pending()
	}
	return out
}

// StatsByEdge returns each shard core's counters keyed by edge.
func (s *Sharded) StatsByEdge() map[wire.NodeID]Stats {
	out := make(map[wire.NodeID]Stats, len(s.cores))
	for i, c := range s.cores {
		out[s.ring.EdgeAt(i)] = c.Stats()
	}
	return out
}

// Receive demultiplexes a delivery to the core owning the shard it
// concerns. Leadership transfers route by chain, whoever sent them (the
// cloud, or a demoted leader answering with the transfer it adopted), and
// re-key the sender index to the promoted node. Edge responses route by
// sender; cloud proofs and gossip carry the chain they concern. Verdicts
// are node-scoped — the node may be a demoted leader no index remembers —
// so they fan out, as does anything else, with each core filtering by its
// own state.
func (s *Sharded) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if m, ok := env.Msg.(*wire.LeadershipTransfer); ok {
		c, ok := s.byChain[m.Chain]
		if !ok {
			return nil
		}
		out := c.Receive(now, env)
		s.byEdge[c.Edge()] = c // responses now arrive from the new leader
		return out
	}
	if c, ok := s.byEdge[env.From]; ok {
		return c.Receive(now, env)
	}
	var concerns wire.NodeID
	switch m := env.Msg.(type) {
	case *wire.BlockProof:
		concerns = m.Edge
	case *wire.Gossip:
		concerns = m.Edge
	default:
		var out []wire.Envelope
		for _, c := range s.cores {
			out = append(out, c.Receive(now, env)...)
		}
		return out
	}
	if c, ok := s.byChain[concerns]; ok {
		return c.Receive(now, env)
	}
	return nil
}

// Tick drives every shard core's timers (dispute timeouts).
func (s *Sharded) Tick(now int64) []wire.Envelope {
	var out []wire.Envelope
	for _, c := range s.cores {
		out = append(out, c.Tick(now)...)
	}
	return out
}
