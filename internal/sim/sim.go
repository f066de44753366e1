// Package sim is a deterministic discrete-event network simulator: the
// substrate that replaces the paper's geo-distributed AWS testbed
// (Section VI) with a reproducible, virtual-time environment.
//
// The simulator models exactly the mechanisms the paper's evaluation
// exercises:
//
//   - per-link one-way latency (the Table I RTT matrix, halved);
//   - per-link bandwidth with FIFO serialization delay, which produces the
//     batch-size sensitivity of Edge-baseline in Figure 4;
//   - per-node FIFO service queues with a pluggable compute-cost model,
//     which produce the saturation behaviour of Figure 5.
//
// Nodes are core.Handler state machines — the identical protocol code that
// runs over TCP in the cmd/ binaries. Virtual time decouples measured
// latency from host noise and lets multi-minute experiments (Figure 6's
// 4000-batch runs) complete in milliseconds of wall time.
package sim

import (
	"container/heap"
	"fmt"

	"wedgechain/internal/core"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// Link describes one directional network path.
type Link struct {
	// Latency is the one-way propagation delay in nanoseconds.
	Latency int64
	// Bandwidth is bytes per second; 0 means infinite.
	Bandwidth float64
}

// CostFn models compute: the service time (ns) a node spends processing
// one envelope. outs are the messages the handler emitted, letting the
// model charge batch-commit work on the request that triggered the block
// cut (identifiable by its outputs). The benchmark harness supplies the
// calibrated model; tests default to zero cost.
type CostFn func(node wire.NodeID, env wire.Envelope, outs []wire.Envelope) int64

// Config parameterizes a simulation.
type Config struct {
	// TickEvery drives Handler.Tick at this virtual period (ns);
	// 0 defaults to 1ms.
	TickEvery int64
	// DefaultLink applies when Links has no entry for a pair.
	DefaultLink Link
	// Links maps [from, to] to the path description.
	Links map[[2]wire.NodeID]Link
	// Cost is the compute model; nil means zero service time.
	Cost CostFn
	// MaxEvents aborts runaway simulations; 0 defaults to 200M events.
	MaxEvents uint64
	// Fault injects deterministic link faults (drop/delay/duplicate/
	// partition) between distinct nodes; nil disables. Self-sends are
	// never perturbed.
	Fault *faultnet.Net
}

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTick
)

type event struct {
	at   int64
	seq  uint64 // insertion order tiebreaker for determinism
	kind eventKind
	node wire.NodeID
	env  wire.Envelope
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type nodeState struct {
	h         core.Handler
	busyUntil int64
}

type linkState struct {
	nextFree int64
}

// Stats aggregates simulator-level counters.
type Stats struct {
	Events    uint64
	Messages  uint64
	Bytes     uint64
	LinkBytes map[[2]wire.NodeID]uint64
}

// Sim is a single-threaded discrete-event simulation. Not safe for
// concurrent use.
type Sim struct {
	cfg   Config
	now   int64
	seq   uint64
	heap  eventHeap
	nodes map[wire.NodeID]*nodeState
	links map[[2]wire.NodeID]*linkState
	stats Stats
}

// New creates an empty simulation.
func New(cfg Config) *Sim {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = int64(1e6)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 200e6
	}
	return &Sim{
		cfg:   cfg,
		nodes: make(map[wire.NodeID]*nodeState),
		links: make(map[[2]wire.NodeID]*linkState),
		stats: Stats{LinkBytes: make(map[[2]wire.NodeID]uint64)},
	}
}

// Add registers a node and schedules its tick stream.
func (s *Sim) Add(h core.Handler) {
	id := h.ID()
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("sim: duplicate node %q", id))
	}
	s.nodes[id] = &nodeState{h: h}
	s.push(&event{at: s.now + s.cfg.TickEvery, kind: evTick, node: id})
}

// Node returns a registered handler (for direct inspection in tests).
func (s *Sim) Node(id wire.NodeID) core.Handler {
	st, ok := s.nodes[id]
	if !ok {
		return nil
	}
	return st.h
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.now }

// Stats returns a copy of the simulator counters (LinkBytes is shared).
func (s *Sim) Stats() Stats { return s.stats }

func (s *Sim) push(e *event) {
	s.seq++
	e.seq = s.seq
	heap.Push(&s.heap, e)
}

func (s *Sim) link(from, to wire.NodeID) (Link, *linkState) {
	key := [2]wire.NodeID{from, to}
	cfg, ok := s.cfg.Links[key]
	if !ok {
		cfg = s.cfg.DefaultLink
	}
	st := s.links[key]
	if st == nil {
		st = &linkState{}
		s.links[key] = st
	}
	return cfg, st
}

// Send routes an envelope emitted by a node at virtual time t: FIFO
// bandwidth serialization on the (from, to) link, then propagation delay,
// then delivery. Messages a node sends to itself are delivered after its
// own service time only.
func (s *Sim) send(t int64, env wire.Envelope) {
	size := wire.EncodedSize(env)
	s.stats.Messages++
	s.stats.Bytes += uint64(size)
	key := [2]wire.NodeID{env.From, env.To}
	s.stats.LinkBytes[key] += uint64(size)
	if env.From == env.To {
		s.push(&event{at: t, kind: evDeliver, node: env.To, env: env})
		return
	}
	cfg, st := s.link(env.From, env.To)
	start := t
	if st.nextFree > start {
		start = st.nextFree
	}
	var tx int64
	if cfg.Bandwidth > 0 {
		tx = int64(float64(size) / cfg.Bandwidth * 1e9)
	}
	st.nextFree = start + tx
	arrive := start + tx + cfg.Latency
	if s.cfg.Fault != nil {
		// The frame already paid its bandwidth share; the injector only
		// decides existence and extra latency per delivery.
		act := s.cfg.Fault.Apply(t, env.From, env.To)
		if act.Drop {
			return
		}
		for _, d := range act.Delays {
			s.push(&event{at: arrive + d, kind: evDeliver, node: env.To, env: env})
		}
		return
	}
	s.push(&event{at: arrive, kind: evDeliver, node: env.To, env: env})
}

// Inject sends envelopes into the network as if their From nodes emitted
// them at the current virtual time. Used by tests and workload drivers to
// start operations.
func (s *Sim) Inject(envs []wire.Envelope) {
	for _, e := range envs {
		s.send(s.now, e)
	}
}

// step processes one event; reports false when the heap is empty.
func (s *Sim) step() bool {
	if s.heap.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.heap).(*event)
	s.now = e.at
	s.stats.Events++
	st, ok := s.nodes[e.node]
	if !ok {
		return true // message to an unknown node: dropped
	}
	switch e.kind {
	case evTick:
		outs := st.h.Tick(s.now)
		for _, env := range outs {
			s.send(s.now, env)
		}
		s.push(&event{at: s.now + s.cfg.TickEvery, kind: evTick, node: e.node})
	case evDeliver:
		// FIFO service queue: the node starts work when free, spends the
		// modeled cost, and its outputs leave at completion time.
		start := s.now
		if st.busyUntil > start {
			start = st.busyUntil
		}
		// The receiver gets what the wire delivers: its own copy, decoded
		// from its own buffer as the TCP reader decodes a frame, so a
		// duplicate never shares a message with the original.
		env, err := wire.DecodeEnvelopeOwned(wire.EncodeEnvelope(e.env))
		if err != nil {
			panic(fmt.Sprintf("sim: %s from %s does not round-trip: %v", e.env.Msg.MsgKind(), e.env.From, err))
		}
		outs := st.h.Receive(start, env)
		var cost int64
		if s.cfg.Cost != nil {
			cost = s.cfg.Cost(e.node, env, outs)
		}
		fin := start + cost
		st.busyUntil = fin
		for _, env := range outs {
			s.send(fin, env)
		}
	}
	return true
}

// RunUntil advances virtual time to t (processing every event at or before
// t). Ticks keep the heap non-empty, so this is the normal way to run.
func (s *Sim) RunUntil(t int64) {
	for s.heap.Len() > 0 && s.heap[0].at <= t {
		if s.stats.Events >= s.cfg.MaxEvents {
			panic("sim: event budget exhausted")
		}
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunWhile advances the simulation while cond holds, up to limit. Returns
// true when cond became false (done), false on hitting the time limit.
func (s *Sim) RunWhile(cond func() bool, limit int64) bool {
	for cond() {
		if s.heap.Len() == 0 || s.heap[0].at > limit {
			return false
		}
		if s.stats.Events >= s.cfg.MaxEvents {
			panic("sim: event budget exhausted")
		}
		s.step()
	}
	return true
}

// Drain processes events until only tick events remain in the next quiet
// period — i.e. until all in-flight protocol messages settle — bounded by
// limit. Useful for integration tests.
func (s *Sim) Drain(limit int64) {
	for s.heap.Len() > 0 && s.heap[0].at <= limit {
		// Stop when the only remaining work is ticking with no deliveries.
		if s.onlyTicksPending() {
			quiet := s.now + 2*s.cfg.TickEvery
			if quiet > limit {
				return
			}
			s.RunUntil(quiet)
			if s.onlyTicksPending() {
				return
			}
			continue
		}
		s.step()
	}
}

func (s *Sim) onlyTicksPending() bool {
	for _, e := range s.heap {
		if e.kind != evTick {
			return false
		}
	}
	return true
}
