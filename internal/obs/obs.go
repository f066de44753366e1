// Package obs is WedgeChain's dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms with a lock-free hot path,
// labeled metric families, and per-process or per-world registries with a
// Prometheus-text-format encoder (encode.go) and an opt-in HTTP exposition
// server (http.go, /metrics + /healthz + /debug/pprof).
//
// Design rules:
//
//   - Zero dependencies, zero allocation on the observation hot path.
//     Counter.Add and Histogram.Observe are a handful of atomic ops.
//   - Every handle is nil-safe: methods on a nil *Counter, *Gauge or
//     *Histogram are no-ops, so a layer can leave its expensive metrics
//     (timing histograms) nil when no registry was configured and pay one
//     predictable branch instead of a time.Now call.
//   - Metric names are validated at registration against the wedge_*
//     convention (see validateName); a bad name is a programming error
//     and panics immediately rather than producing an unscrapable series.
//
// The headline series is wedge_trust_lag_seconds: the time each
// Phase-I-acked write spent uncertified — the lazy-trust SLO.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is NOT
// usable; obtain handles from a Registry. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down (queue depths, frontier
// positions, config knobs). Safe for concurrent use; no-op when nil.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v (CAS loop; v may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative-style buckets
// (upper bounds, strictly increasing; an implicit +Inf bucket catches
// the tail). Observe is lock-free and allocation-free: a binary search
// over the bounds plus three atomic ops. No-op when nil — layers leave
// timing histograms nil when metrics are disabled.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; counts has len(bounds)+1
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d (%g <= %g)",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// SearchFloat64s returns the first i with bounds[i] >= v — exactly
	// the le-bucket index; v greater than every bound lands in the +Inf
	// bucket at len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns (bucket counts incl. +Inf, total, sum) read once.
// The per-bucket loads are not atomic as a group; scrapes tolerate the
// usual Prometheus-style slight skew between buckets and count.
func (h *Histogram) snapshot() ([]uint64, uint64, float64) {
	cs := make([]uint64, len(h.counts))
	for i := range h.counts {
		cs[i] = h.counts[i].Load()
	}
	return cs, h.count.Load(), h.Sum()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the owning bucket, Prometheus histogram_quantile
// style. Returns 0 with no observations; the highest finite bound for
// samples in the +Inf bucket. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cs, total, _ := h.snapshot()
	return bucketQuantile(h.bounds, cs, total, q)
}

// bucketQuantile interpolates a quantile from cumulative-style bucket
// counts (cs[i] = observations <= bounds[i]; cs[len(bounds)] = +Inf).
func bucketQuantile(bounds []float64, cs []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range cs {
		cum += c
		if float64(cum) >= rank {
			if i == len(bounds) {
				// Tail bucket: no finite upper bound to interpolate
				// toward; report the largest finite bound.
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ExpBuckets returns n exponential bucket upper bounds starting at
// start, each factor times the previous — the standard latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the default seconds ladder for WedgeChain latency
// histograms: 50 µs to ~400 s in powers of two. Wide enough for both
// the sim's virtual clock and wall-clock TCP deployments.
var LatencyBuckets = ExpBuckets(50e-6, 2, 24)

// SizeBuckets is the default ladder for byte/entry-count histograms:
// 1 to ~1 M in powers of four.
var SizeBuckets = ExpBuckets(1, 4, 11)
