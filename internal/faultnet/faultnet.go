// Package faultnet is a deterministic fault-injection layer for the
// wedgechain transports. A Net sits at a transport's egress choke point
// (sim.send, transport.TCP.send) and decides, per
// frame, whether the frame is dropped, delayed, duplicated or delivered
// cleanly. Decisions come from seeded per-link PRNG streams, so a chaos
// run with a fixed seed replays the exact same fault schedule regardless
// of cross-link interleaving — failures found by the soak harness are
// reproducible by seed alone.
//
// Faults are described by Rules: each rule names a directed link (with
// "" as a wildcard endpoint), an optional active time window, and the
// fault mix on that link (drop probability, duplicate probability, delay
// range). Partition is a convenience for a bidirectional drop-all rule
// pair. Rules are consulted in order; the first match wins.
package faultnet

import (
	"fmt"
	"sync"

	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// LinkFaults is the fault mix applied to frames on one matched link.
type LinkFaults struct {
	// Drop is the probability in [0,1] that a frame is silently lost.
	Drop float64
	// Dup is the probability in [0,1] that a surviving frame is
	// delivered twice. The duplicate gets its own random delay, so
	// duplication also produces reordering.
	Dup float64
	// DelayMin and DelayMax bound the extra latency, in nanoseconds,
	// added to each delivery. A non-zero range yields a uniform random
	// delay per delivery — and therefore reordering between frames.
	DelayMin, DelayMax int64
}

// Rule matches a directed link over an optional time window and names
// the faults injected there.
type Rule struct {
	// From and To select the link; empty string matches any node.
	From, To wire.NodeID
	// FromT and ToT bound the active window in transport time
	// (nanoseconds). A zero window (both 0) means always active.
	FromT, ToT int64
	// Faults is the fault mix while the rule is active.
	Faults LinkFaults
}

func (r *Rule) matches(now int64, from, to wire.NodeID) bool {
	if r.From != "" && r.From != from {
		return false
	}
	if r.To != "" && r.To != to {
		return false
	}
	if r.FromT == 0 && r.ToT == 0 {
		return true
	}
	return now >= r.FromT && now < r.ToT
}

// Action is the verdict for one frame. Drop means the frame vanishes.
// Otherwise Delays holds one entry per delivery — normally [0] for a
// single undelayed delivery; duplication appends entries and delay
// ranges perturb the values.
type Action struct {
	Drop   bool
	Delays []int64
}

// Stats counts injected faults, for harness logs.
type Stats struct {
	Frames uint64 // frames consulted
	Drops  uint64 // frames dropped
	Dups   uint64 // extra deliveries injected
	Slowed uint64 // deliveries given a non-zero extra delay
}

// Net is a deterministic fault injector shared by one transport. Safe
// for concurrent use.
type Net struct {
	mu    sync.Mutex
	seed  uint64
	rules []Rule
	links map[linkKey]*splitmix
	stats Stats

	// Registry mirrors of the counters (see AttachMetrics); nil-safe
	// no-ops until attached.
	mFrames *obs.Counter
	mDrops  *obs.Counter
	mDups   *obs.Counter
	mSlowed *obs.Counter
}

type linkKey struct{ from, to wire.NodeID }

// New creates a fault injector. All randomness derives from seed and
// the (from, to) link identity, never from map order or goroutine
// interleaving.
func New(seed int64) *Net {
	return &Net{seed: uint64(seed), links: make(map[linkKey]*splitmix)}
}

// Add appends a rule. Rules are consulted in order; first match wins.
func (n *Net) Add(r Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = append(n.rules, r)
}

// Partition drops every frame between a and b, both directions, over
// [fromT, toT) (always, if both are 0). Heal or Clear lifts it. The rule
// pair is PREPENDED: a partition severs the link outright, so it takes
// precedence over any wildcard noise rule already installed — harnesses
// can cut a link mid-run without reasoning about rule order.
func (n *Net) Partition(a, b wire.NodeID, fromT, toT int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = append([]Rule{
		{From: a, To: b, FromT: fromT, ToT: toT, Faults: LinkFaults{Drop: 1}},
		{From: b, To: a, FromT: fromT, ToT: toT, Faults: LinkFaults{Drop: 1}},
	}, n.rules...)
}

// Heal removes every rule touching node id (as a concrete endpoint).
func (n *Net) Heal(id wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	kept := n.rules[:0]
	for _, r := range n.rules {
		if r.From == id || r.To == id {
			continue
		}
		kept = append(kept, r)
	}
	n.rules = kept
}

// Clear removes all rules. Link PRNG streams keep their positions, so
// a later rule continues the deterministic schedule.
func (n *Net) Clear() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = nil
}

// AttachMetrics mirrors the fault counters into reg as
// wedge_faultnet_*_total series labeled {node} — node names the
// endpoint whose egress this Net shapes. Counts injected before the
// attach are not replayed; attach before traffic for exact totals.
func (n *Net) AttachMetrics(reg *obs.Registry, node string) {
	if n == nil || reg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mFrames = reg.CounterVec("wedge_faultnet_frames_total", "frames consulted by the fault injector", "node").With(node)
	n.mDrops = reg.CounterVec("wedge_faultnet_drops_total", "frames dropped by injected faults", "node").With(node)
	n.mDups = reg.CounterVec("wedge_faultnet_dups_total", "extra deliveries injected", "node").With(node)
	n.mSlowed = reg.CounterVec("wedge_faultnet_slowed_total", "deliveries given a non-zero extra delay", "node").With(node)
}

// Snapshot returns a copy of the fault counters.
func (n *Net) Snapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// String summarizes the counters for log lines.
func (s Stats) String() string {
	return fmt.Sprintf("frames=%d drops=%d dups=%d slowed=%d", s.Frames, s.Drops, s.Dups, s.Slowed)
}

// Apply decides the fate of one frame on link from→to at transport time
// now. The caller delivers the frame once per entry in Delays (each
// entry is extra nanoseconds on top of the transport's own latency), or
// not at all when Drop is set.
func (n *Net) Apply(now int64, from, to wire.NodeID) Action {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Frames++
	n.mFrames.Inc()
	var rule *Rule
	for i := range n.rules {
		if n.rules[i].matches(now, from, to) {
			rule = &n.rules[i]
			break
		}
	}
	if rule == nil {
		return Action{Delays: []int64{0}}
	}
	rng := n.rng(from, to)
	f := rule.Faults
	if f.Drop > 0 && rng.float() < f.Drop {
		n.stats.Drops++
		n.mDrops.Inc()
		return Action{Drop: true}
	}
	act := Action{Delays: []int64{n.delay(rng, f)}}
	if f.Dup > 0 && rng.float() < f.Dup {
		n.stats.Dups++
		n.mDups.Inc()
		act.Delays = append(act.Delays, n.delay(rng, f))
	}
	return act
}

func (n *Net) delay(rng *splitmix, f LinkFaults) int64 {
	if f.DelayMax <= f.DelayMin {
		if f.DelayMin > 0 {
			n.stats.Slowed++
			n.mSlowed.Inc()
		}
		return f.DelayMin
	}
	d := f.DelayMin + int64(rng.next()%uint64(f.DelayMax-f.DelayMin))
	if d > 0 {
		n.stats.Slowed++
		n.mSlowed.Inc()
	}
	return d
}

// rng returns the per-link PRNG stream, creating it on first use. The
// stream is sub-seeded by hashing the net seed with the link endpoints
// (FNV-1a), so each link's schedule is a deterministic function of
// (seed, from, to) alone.
func (n *Net) rng(from, to wire.NodeID) *splitmix {
	k := linkKey{from, to}
	if r, ok := n.links[k]; ok {
		return r
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= 1099511628211
	}
	mix(string(from))
	mix(string(to))
	r := &splitmix{state: n.seed ^ h}
	n.links[k] = r
	return r
}

// splitmix is splitmix64 — tiny, fast, and good enough for fault
// scheduling. Not safe for concurrent use; callers hold Net.mu.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
