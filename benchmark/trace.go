package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"wedgechain/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (nothing inside the program is instrumented). Times are
// nanoseconds on the harness clock. Cause is the span whose output this
// span consumed — the handler call that emitted the envelope — and Wait
// is the time between that emission and this span's arrival, i.e. the
// hop. Self is the span's duration minus the part its children cover.
type span struct {
	ID    uint64 `json:"id"`
	Trace string `json:"trace"`
	Name  string `json:"name"`
	Node  string `json:"node"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Self  int64  `json:"self_ns"`
	Cause uint64 `json:"cause"`
	Wait  int64  `json:"wait_ns"`
}

// role is what a node is to the hop accounting.
type role uint8

const (
	roleClient role = iota
	roleEdge
	roleFollower
	roleCloud
)

// linkName names a directed hop by the roles of its ends, or "" for hops
// the budget does not follow (cloud to client gossip, follower to cloud).
func linkName(from, to role) string {
	switch {
	case from == roleClient && to == roleEdge:
		return "client_edge"
	case from == roleEdge && to == roleClient:
		return "edge_client"
	case from == roleEdge && to == roleCloud:
		return "edge_cloud"
	case from == roleCloud && to == roleEdge:
		return "cloud_edge"
	case from == roleEdge && to == roleFollower:
		return "edge_follower"
	}
	return ""
}

const (
	samplesPerKind = 256    // envelopes kept per wire kind for the replay measurements
	traceSpanCap   = 120000 // spans written to a trace file (~25 MB); whole traces are sampled beyond it
)

type stamp struct {
	span uint64
	at   int64
	from role
}

// samples collects durations in nanoseconds.
type samples []int64

func (s *samples) add(v int64) { *s = append(*s, v) }

func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// meanUS is the mean in microseconds: what a call costs on average, the
// number to multiply by a rate.
func (s samples) meanUS() float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s.sum()) / float64(len(s)) / 1e3
}

// medianUS is the median in microseconds: what a call costs on the path
// of a typical op, the number the latency medians are made of.
func (s samples) medianUS() float64 {
	xs := make([]float64, len(s))
	for i, v := range s {
		xs[i] = float64(v) / 1e3
	}
	return percentile(xs, 0.5)
}

// tracer collects spans, the emission stamps that link them across
// sockets, and a sample of the envelopes seen, while on is set.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	seed   maphash.Seed

	mu      sync.Mutex
	spans   []span
	stamps  map[uint64]stamp
	samples map[wire.Kind]*reservoir
	hops    map[string]*samples // hop waits by link, and by link+"."+kind
	rng     *rand.Rand
}

type reservoir struct {
	seen int
	envs []wire.Envelope
}

func newTracer(seed int64) *tracer {
	return &tracer{
		seed:    maphash.MakeSeed(),
		stamps:  make(map[uint64]stamp),
		samples: make(map[wire.Kind]*reservoir),
		hops:    make(map[string]*samples),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// envKey identifies an envelope by its canonical encoding, which is the
// same at the emitting handler and, after the socket, at the receiving
// one.
func (t *tracer) envKey(env wire.Envelope) uint64 {
	e := wire.GetEncoder()
	wire.AppendEnvelope(e, env)
	k := maphash.Bytes(t.seed, e.Bytes())
	wire.PutEncoder(e)
	return k
}

// emitted stamps envelopes a span produced at time at.
func (t *tracer) emitted(envs []wire.Envelope, id uint64, at int64, from role) {
	if len(envs) == 0 {
		return
	}
	keys := make([]uint64, len(envs))
	for i, env := range envs {
		keys[i] = t.envKey(env)
	}
	t.mu.Lock()
	for _, k := range keys {
		t.stamps[k] = stamp{span: id, at: at, from: from}
	}
	t.mu.Unlock()
}

// arrived looks up (and consumes) the stamp of an envelope that reached a
// handler at time at, records the hop, and samples the envelope.
func (t *tracer) arrived(env wire.Envelope, at int64, to role) (cause uint64, wait int64) {
	k := t.envKey(env)
	kind := env.Msg.MsgKind()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.samples[kind]
	if r == nil {
		r = &reservoir{}
		t.samples[kind] = r
	}
	r.seen++
	if len(r.envs) < samplesPerKind {
		r.envs = append(r.envs, env)
	} else if j := t.rng.Intn(r.seen); j < samplesPerKind {
		r.envs[j] = env
	}
	st, ok := t.stamps[k]
	if !ok {
		return 0, 0
	}
	delete(t.stamps, k)
	wait = at - st.at
	if link := linkName(st.from, to); link != "" {
		t.hop(link).add(wait)
		t.hop(link + "." + kind.String()).add(wait)
	}
	return st.span, wait
}

func (t *tracer) hop(name string) *samples {
	m := t.hops[name]
	if m == nil {
		m = &samples{}
		t.hops[name] = m
	}
	return m
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// traceOf names the request an envelope belongs to: <client>/<edge>/<seq>
// for writes, <client>/<edge>/r<reqid> for reads, b/<chain>/<bid> for
// everything that happens to a block, m/<chain>/<reqid> for merges.
func traceOf(env wire.Envelope) string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	switch m := env.Msg.(type) {
	case *wire.PutBatch:
		if len(m.Entries) > 0 {
			return string(env.From) + "/" + string(env.To) + "/" + u(m.Entries[0].Seq)
		}
	case *wire.PutRequest:
		return string(env.From) + "/" + string(env.To) + "/" + u(m.Entry.Seq)
	case *wire.GetRequest:
		return string(env.From) + "/" + string(env.To) + "/r" + u(m.ReqID)
	case *wire.ScanRequest:
		return string(env.From) + "/" + string(env.To) + "/r" + u(m.ReqID)
	case *wire.GetResponse:
		return string(env.To) + "/" + string(env.From) + "/r" + u(m.ReqID)
	case *wire.ScanResponse:
		return string(env.To) + "/" + string(env.From) + "/r" + u(m.ReqID)
	case *wire.PutResponse:
		return "b/" + string(m.Block.Edge) + "/" + u(m.BID)
	case *wire.BlockCertify:
		return "b/" + string(m.Edge) + "/" + u(m.BID)
	case *wire.BlockProof:
		return "b/" + string(m.Edge) + "/" + u(m.BID)
	case *wire.BlockCertifyBatch:
		return "b/" + string(m.Edge) + "/" + u(m.Start)
	case *wire.BlockCertBatch:
		return "b/" + string(m.Edge) + "/" + u(m.Start)
	case *wire.ReplicateBlock:
		return "b/" + string(m.Chain) + "/" + u(m.Block.ID)
	case *wire.MergeRequest:
		return "m/" + string(m.Edge) + "/" + u(m.ReqID)
	case *wire.MergeResponse:
		return "m/" + string(m.Edge) + "/" + u(m.ReqID)
	}
	return "x/" + env.Msg.MsgKind().String()
}

// computeSelf fills Self for every span: its duration minus the union of
// the intervals of the spans it caused, clipped to its own interval.
func computeSelf(spans []span) {
	index := make(map[uint64]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	children := make(map[int][][2]int64)
	for i := range spans {
		if p, ok := index[spans[i].Cause]; ok && spans[i].Cause != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self -= covered
	}
}

// spanStats are the per-name aggregates the layer metrics are read from.
type spanStats map[string]*samples

func aggregate(spans []span) spanStats {
	st := make(spanStats)
	for i := range spans {
		m := st[spans[i].Name]
		if m == nil {
			m = &samples{}
			st[spans[i].Name] = m
		}
		m.add(spans[i].Self)
	}
	return st
}

func (st spanStats) get(name string) samples {
	if m := st[name]; m != nil {
		return *m
	}
	return nil
}

// writeTrace writes the spans as JSON lines. Beyond traceSpanCap spans it
// keeps a hash-selected sample of whole traces plus every span a kept
// span names as its cause, so each cause still resolves inside the file.
func writeTrace(path string, spans []span) error {
	keep := spans
	if len(spans) > traceSpanCap {
		index := make(map[uint64]int, len(spans))
		for i := range spans {
			index[spans[i].ID] = i
		}
		every := uint64(len(spans)/traceSpanCap + 1)
		seed := maphash.MakeSeed()
		kept := make([]bool, len(spans))
		var work []int
		for i := range spans {
			if maphash.String(seed, spans[i].Trace)%every == 0 {
				kept[i] = true
				work = append(work, i)
			}
		}
		for len(work) > 0 {
			i := work[len(work)-1]
			work = work[:len(work)-1]
			if p, ok := index[spans[i].Cause]; ok && !kept[p] {
				kept[p] = true
				work = append(work, p)
			}
		}
		keep = keep[:0:0]
		for i := range spans {
			if kept[i] {
				keep = append(keep, spans[i])
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range keep {
		if err := enc.Encode(&keep[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
