// Package workload generates the key-value workloads of the paper's
// evaluation (Section VI) and drives them closed-loop through any of the
// three systems (WedgeChain, Cloud-only, Edge-baseline) over the
// simulator.
//
// The evaluation's client behaviour is: writes are buffered into batches
// of B operations and issued as one burst; reads are interactive, one at a
// time. A Driver alternates write bursts and read runs according to the
// configured mix and records burst latencies, read latencies, and
// throughput in virtual time.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wedgechain/internal/core"
	"wedgechain/internal/wire"
)

// KeyGen produces workload keys.
type KeyGen interface {
	Next() []byte
}

// UniformKeys draws keys uniformly from a space of N keys.
type UniformKeys struct {
	N   int
	rng *rand.Rand
}

// NewUniformKeys returns a uniform generator over N keys.
func NewUniformKeys(n int, seed int64) *UniformKeys {
	return &UniformKeys{N: n, rng: rand.New(rand.NewSource(seed))}
}

// Next implements KeyGen.
func (u *UniformKeys) Next() []byte { return KeyName(u.rng.Intn(u.N)) }

// ZipfKeys draws keys with Zipfian skew (hot keys dominate), the typical
// IoT sensor-popularity pattern.
type ZipfKeys struct {
	z *rand.Zipf
}

// NewZipfKeys returns a zipf generator over n keys with exponent s.
func NewZipfKeys(n int, s float64, seed int64) *ZipfKeys {
	rng := rand.New(rand.NewSource(seed))
	return &ZipfKeys{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next implements KeyGen.
func (z *ZipfKeys) Next() []byte { return KeyName(int(z.z.Uint64())) }

// SeqKeys yields key 0, 1, 2, ... — used for preloading.
type SeqKeys struct{ i int }

// Next implements KeyGen.
func (s *SeqKeys) Next() []byte {
	k := KeyName(s.i)
	s.i++
	return k
}

// KeyName formats key i canonically ("k00001234").
func KeyName(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// Conn abstracts the three systems' clients behind one key-value surface.
// Status exposes client-perceived completion: for WedgeChain that is
// Phase I commit — the paper's headline latency — while Phase II progress
// is tracked separately by the experiment.
type Conn interface {
	core.Handler
	// PutBurst submits a whole write batch in one request, the paper's
	// batched submission mode.
	PutBurst(now int64, keys, values [][]byte) ([]Status, []wire.Envelope)
	GetOp(now int64, key []byte) (Status, []wire.Envelope)
}

// Status reports an operation's client-perceived completion.
type Status interface {
	Settled() bool
	Err() error
}

// Config parameterizes a driver.
type Config struct {
	// WritesPerRound is the write burst size (the paper's batch size B).
	WritesPerRound int
	// ReadsPerRound interleaves this many interactive reads per round.
	ReadsPerRound int
	// Rounds bounds the workload.
	Rounds int
	// Keys generates workload keys; Values sizes the payloads.
	Keys      KeyGen
	ValueSize int
	// WarmupRounds are executed but excluded from metrics.
	WarmupRounds int
	// Seed feeds value generation.
	Seed int64
}

// Metrics aggregates a driver's observations (virtual time, nanoseconds).
type Metrics struct {
	BurstLat []int64 // write burst completion latencies, per round
	ReadLat  []int64 // individual read latencies
	StartAt  int64
	EndAt    int64
	Writes   int
	Reads    int
	Failed   int
}

// Throughput returns completed operations per second of virtual time.
func (m *Metrics) Throughput() float64 {
	dur := float64(m.EndAt-m.StartAt) / 1e9
	if dur <= 0 {
		return 0
	}
	return float64(m.Writes+m.Reads) / dur
}

// MeanBurstLatency returns the mean write burst latency in milliseconds.
func (m *Metrics) MeanBurstLatency() float64 { return meanMS(m.BurstLat) }

// MeanReadLatency returns the mean read latency in milliseconds.
func (m *Metrics) MeanReadLatency() float64 { return meanMS(m.ReadLat) }

// P99BurstLatency returns the 99th percentile burst latency (ms).
func (m *Metrics) P99BurstLatency() float64 { return percentileMS(m.BurstLat, 0.99) }

func meanMS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs)) / 1e6
}

func percentileMS(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}

type phase uint8

const (
	phWrites phase = iota
	phReads
	phDone
)

// Driver runs the closed-loop workload. It wraps the system's client
// handler: the simulator delivers messages to the driver, which forwards
// them to the client and issues the next operation as soon as the current
// burst settles.
type Driver struct {
	cfg  Config
	conn Conn
	rng  *rand.Rand

	hold       bool
	round      int
	phase      phase
	burst      []Status
	burstStart int64
	readsLeft  int
	read       Status
	readStart  int64
	started    bool

	m Metrics
}

// NewDriver wraps conn with a closed-loop workload. The driver is created
// held (idle) so experiments can preload data through the same connection;
// Start releases it.
func NewDriver(cfg Config, conn Conn) *Driver {
	if cfg.WritesPerRound < 0 || cfg.ReadsPerRound < 0 {
		panic("workload: negative round sizes")
	}
	return &Driver{cfg: cfg, conn: conn, hold: true, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
}

// Start releases the driver; the next tick or delivery issues the first
// round.
func (d *Driver) Start() { d.hold = false }

// ID implements core.Handler.
func (d *Driver) ID() wire.NodeID { return d.conn.ID() }

// Done reports workload completion.
func (d *Driver) Done() bool { return d.phase == phDone }

// Metrics returns the recorded observations.
func (d *Driver) Metrics() *Metrics { return &d.m }

// Receive implements core.Handler: deliver to the client, then advance the
// closed loop.
func (d *Driver) Receive(now int64, env wire.Envelope) []wire.Envelope {
	outs := d.conn.Receive(now, env)
	return append(outs, d.pump(now)...)
}

// Tick implements core.Handler.
func (d *Driver) Tick(now int64) []wire.Envelope {
	outs := d.conn.Tick(now)
	return append(outs, d.pump(now)...)
}

func (d *Driver) value() []byte {
	v := make([]byte, d.cfg.ValueSize)
	d.rng.Read(v)
	return v
}

func (d *Driver) measuring() bool { return d.round >= d.cfg.WarmupRounds }

// pump advances the closed loop: finish the current burst or read, record
// its latency, and issue the next work item.
func (d *Driver) pump(now int64) []wire.Envelope {
	if d.hold {
		return nil
	}
	var out []wire.Envelope
	for {
		switch d.phase {
		case phDone:
			return out

		case phWrites:
			if d.measuring() && !d.started {
				d.started = true
				d.m.StartAt = now
			}
			if d.burst == nil {
				if d.cfg.WritesPerRound == 0 {
					d.phase = phReads
					d.readsLeft = d.cfg.ReadsPerRound
					continue
				}
				// Issue the whole burst as one batched request.
				d.burstStart = now
				keys := make([][]byte, d.cfg.WritesPerRound)
				values := make([][]byte, d.cfg.WritesPerRound)
				for i := range keys {
					keys[i] = d.cfg.Keys.Next()
					values[i] = d.value()
				}
				sts, envs := d.conn.PutBurst(now, keys, values)
				d.burst = sts
				out = append(out, envs...)
				return out
			}
			for _, st := range d.burst {
				if !st.Settled() {
					return out
				}
			}
			// Burst complete.
			if d.measuring() {
				d.m.BurstLat = append(d.m.BurstLat, now-d.burstStart)
				d.m.Writes += d.cfg.WritesPerRound
				for _, st := range d.burst {
					if st.Err() != nil {
						d.m.Failed++
					}
				}
			}
			d.burst = nil
			d.phase = phReads
			d.readsLeft = d.cfg.ReadsPerRound

		case phReads:
			if d.read != nil {
				if !d.read.Settled() {
					return out
				}
				if d.measuring() {
					d.m.ReadLat = append(d.m.ReadLat, now-d.readStart)
					d.m.Reads++
					if d.read.Err() != nil {
						d.m.Failed++
					}
				}
				d.read = nil
				d.readsLeft--
			}
			if d.readsLeft <= 0 {
				d.round++
				if d.round >= d.cfg.Rounds+d.cfg.WarmupRounds {
					d.phase = phDone
					d.m.EndAt = now
					return out
				}
				d.phase = phWrites
				continue
			}
			if d.measuring() && !d.started {
				d.started = true
				d.m.StartAt = now
			}
			st, envs := d.conn.GetOp(now, d.cfg.Keys.Next())
			d.read = st
			d.readStart = now
			out = append(out, envs...)
			return out
		}
	}
}
