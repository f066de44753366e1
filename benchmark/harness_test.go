package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		a := genSchedule(sp, 7, 3*time.Second).encode()
		b := genSchedule(sp, 7, 3*time.Second).encode()
		c := genSchedule(sp, 8, 3*time.Second).encode()
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", sp.Name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", sp.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same schedule", sp.Name)
		}
	}
}

func TestPreloadCoversEveryKeyOnce(t *testing.T) {
	sp := &spec{Sessions: 3, Preload: 250}
	seen := make(map[int32]int)
	for _, op := range preloadOps(sp, 1) {
		for _, k := range op.Keys {
			seen[k]++
		}
	}
	for k := int32(0); k < 250; k++ {
		if seen[k] != 1 {
			t.Fatalf("key %d written %d times", k, seen[k])
		}
	}
}

func TestPercentileQuartilesWindows(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := iqr([]float64{16, 1, 8, 2, 4}); got != 10.5 {
		t.Errorf("iqr = %v, want 10.5", got)
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{99, -1}, {100, 0}, {119, 0}, {120, 1}, {199, 4}, {200, -1}} {
		if got := windowOf(c.t, 100, 200, 5); got != c.want {
			t.Errorf("windowOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

// Writes certified before the interval (preload, warm-up) count towards the
// deployment's whole life only; the interval's own counts start at t0 and
// run to quiescence.
func TestSummariseSeparatesPreloadFromTheInterval(t *testing.T) {
	const t0, t1, quiet = 1000, 2000, 2500
	recs := []*opRec{
		{kind: opBurst, n: 100, due: 10, submit: 10, p1: 20, p2: 30},         // preload
		{kind: opBurst, n: 100, due: 900, submit: 900, p1: 950, p2: 1100},    // warm-up, certified inside
		{kind: opPut, n: 1, due: 1500, submit: 1501, p1: 1510, p2: 1600},     // measured
		{kind: opBurst, n: 100, due: 1900, submit: 1900, p1: 1950, p2: 2200}, // measured, certified in the drain
		{kind: opGet, n: 1, due: 1200, submit: 1200, p1: 1210, done: 1210},
	}
	s := summarise(recs, t0, t1, quiet)
	if s.putsBefore != 100 || s.putsCertified != 201 {
		t.Errorf("putsBefore %d, putsCertified %d, want 100, 201", s.putsBefore, s.putsCertified)
	}
	if s.attempted != 102 || s.failed != 0 {
		t.Errorf("attempted %d failed %d, want 102, 0", s.attempted, s.failed)
	}
	if s.completed != 102 { // the warm-up burst, the single put and the get completed inside
		t.Errorf("completed %d, want 102", s.completed)
	}
	if got := s.winPuts[0] + s.winPuts[1] + s.winPuts[2] + s.winPuts[3] + s.winPuts[4]; got != 101 {
		t.Errorf("puts certified inside the windows %d, want 101", got)
	}
}

// A hand-built tree: the root runs 0..100 and caused two overlapping
// children (10..30, 20..50) and one that starts inside it and ends after
// it (90..140); a grandchild lies wholly inside the first child.
func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Start: 10, End: 30, Cause: 1},
		{ID: 3, Start: 20, End: 50, Cause: 1},
		{ID: 4, Start: 90, End: 140, Cause: 1},
		{ID: 5, Start: 12, End: 18, Cause: 2},
		{ID: 6, Start: 500, End: 510, Cause: 99}, // cause not recorded
	}
	computeSelf(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 50, 5: 6, 6: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestOracleCatchesAStaleRead(t *testing.T) {
	o := newOracle(10)
	old, fresh := uint64(111), uint64(222)
	o.acked(3, 5, old)
	o.certified(3, 5)
	o.acked(3, 9, fresh)
	o.certified(3, 9)
	floor := o.floor(3) // a get submitted now must see version 9

	o.checkGet(3, true, 9, makeValue(fresh), floor)
	if p := o.settle(); len(p) != 0 {
		t.Fatalf("fresh read flagged: %v", p)
	}
	o.checkGet(3, true, 5, makeValue(old), floor) // deliberately stale
	p := o.settle()
	if len(p) != 1 || !strings.Contains(p[0], "stale read") {
		t.Fatalf("stale read not caught: %v", p)
	}
}

func TestOracleScanRules(t *testing.T) {
	keys := keyTable(10)
	row := func(k int, ver, vseed uint64) wire.KV {
		return wire.KV{Key: keys[k], Value: makeValue(vseed), Ver: ver}
	}
	fresh := func() *oracle {
		o := newOracle(10)
		for k := int32(2); k <= 5; k++ {
			o.acked(k, uint64(k), uint64(100+k))
			o.certified(k, uint64(k))
		}
		return o
	}
	all := []wire.KV{row(2, 2, 102), row(3, 3, 103), row(4, 4, 104), row(5, 5, 105)}
	cases := []struct {
		name  string
		limit int
		rows  []wire.KV
		want  string // "" = no violation
	}{
		{"complete", 8, all, ""},
		{"truncated at the limit", 2, all[:2], ""},
		{"over the limit", 2, all[:3], "exceed limit"},
		{"missing a certified key", 8, []wire.KV{all[0], all[2], all[3]}, "missing from the result"},
		{"out of order", 8, []wire.KV{all[1], all[0], all[2], all[3]}, "out of order"},
		{"wrong value", 8, []wire.KV{row(2, 2, 999), all[1], all[2], all[3]}, "value differs"},
		{"unacknowledged version", 8, []wire.KV{row(2, 77, 102), all[1], all[2], all[3]}, "never acknowledged"},
	}
	for _, c := range cases {
		o := fresh()
		o.checkScan(0, o.floorRange(0, 8), c.limit, c.rows)
		p := o.settle()
		switch {
		case c.want == "" && len(p) != 0:
			t.Errorf("%s: flagged: %v", c.name, p)
		case c.want != "" && (len(p) == 0 || !strings.Contains(strings.Join(p, "\n"), c.want)):
			t.Errorf("%s: want a %q violation, got %v", c.name, c.want, p)
		}
	}
}

// recorder is a handler that hands every delivery to a channel.
type recorder struct {
	id  wire.NodeID
	got chan wire.Envelope
}

func (r *recorder) ID() wire.NodeID { return r.id }
func (r *recorder) Receive(_ int64, env wire.Envelope) []wire.Envelope {
	r.got <- env
	return nil
}
func (r *recorder) Tick(int64) []wire.Envelope { return nil }

// An envelope stamped where it is emitted must be matched, by content
// alone, where it arrives after crossing a real loopback socket.
func TestStampMatchesAcrossALoopbackHop(t *testing.T) {
	a := &recorder{id: "a", got: make(chan wire.Envelope, 1)}
	b := &recorder{id: "b", got: make(chan wire.Envelope, 1)}
	ta := transport.NewTCP(a, transport.TCPConfig{Listen: "127.0.0.1:0"})
	tb := transport.NewTCP(b, transport.TCPConfig{Listen: "127.0.0.1:0"})
	for _, tcp := range []*transport.TCP{ta, tb} {
		if err := tcp.Listen(); err != nil {
			t.Fatal(err)
		}
	}
	ta.SetPeer("b", tb.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	for _, tcp := range []*transport.TCP{ta, tb} {
		tcp := tcp
		go func() { done <- tcp.Serve(ctx) }()
	}
	defer func() {
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}()

	tr := newTracer(1)
	key := wcrypto.DeterministicKey("a")
	entry := wire.Entry{Client: "a", Seq: 7, Key: []byte("k00000001"), Value: makeValue(42), Ts: 1}
	entry.Sig = wcrypto.SignMsg(key, &entry)
	env := wire.Envelope{From: "a", To: "b", Msg: &wire.PutRequest{Entry: entry}}
	tr.emitted([]wire.Envelope{env}, 17, 1000, roleClient)
	ta.Do(func(int64) []wire.Envelope { return []wire.Envelope{env} })

	select {
	case got := <-b.got:
		cause, wait := tr.arrived(got, 4000, roleEdge)
		if cause != 17 || wait != 3000 {
			t.Fatalf("cause %d wait %d, want 17 and 3000", cause, wait)
		}
		if again, _ := tr.arrived(got, 5000, roleEdge); again != 0 {
			t.Errorf("stamp matched twice")
		}
		if len(*tr.hop("client_edge")) != 1 || len(*tr.hop("client_edge.PutRequest")) != 1 {
			t.Errorf("hop not recorded: %+v", tr.hops)
		}
		if traceOf(got) != "a/b/7" {
			t.Errorf("trace %q, want a/b/7", traceOf(got))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived")
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		m    metricDef
		a, b float64
		pass bool
	}{
		{lower, 10, 10.9, true}, {lower, 10, 11.1, false}, {lower, 10, 5, true},
		{higher, 100, 96, true}, {higher, 100, 94, false}, {higher, 100, 200, true},
		{lower, 0, 1, false}, // a metric that reads 0 is a broken run
	} {
		if got := compareMetric(c.m, c.a, c.b, 1); got.pass != c.pass {
			t.Errorf("%s %v -> %v: pass %v, want %v (worse %.3f)", c.m.Name, c.a, c.b, got.pass, c.pass, got.worse)
		}
	}
	if !compareMetric(lower, 10, 11.5, 2).pass {
		t.Errorf("doubled bound should admit 15%%")
	}
}

// On a host that takes twice the nominal time for the reference
// computation, what is processor time halves and the closed loop's
// throughput doubles; what a schedule, a timer or an injected delay sets
// is reported as read, and every scaled metric keeps its raw reading.
func TestScalingToTheReferenceHost(t *testing.T) {
	ops := &opSummary{completed: 1000, phase1: []float64{4}, phase2: []float64{8}, get: []float64{2}, scan: []float64{6}}
	snaps := make([]snapshot, windows+1)
	for i := range snaps {
		snaps[i] = snapshot{at: int64(i) * 2e8, cpu: int64(i) * 1e8} // 1 s of wall clock, 0.5 s of processor
	}
	for _, c := range []struct {
		sp                      spec
		ops, phase1, get, cpuUS float64
	}{
		{spec{}, 1000, 2, 1, 250},
		{spec{Closed: true}, 2000, 2, 1, 250},
		{spec{PutsWait: true}, 1000, 4, 1, 250},
	} {
		res := &result{RefUS: 2 * refNominalUS, Metrics: make(map[string]metricValue)}
		endToEndMetrics(res, &c.sp, ops, snaps, snaps[windows], 1<<20)
		for name, want := range map[string]float64{"ops_per_s": c.ops, "put_phase1_p50_ms": c.phase1, "put_phase2_p50_ms": 2 * c.phase1,
			"get_p50_ms": c.get, "scan_p50_ms": 3 * c.get, "cpu_us_per_op": c.cpuUS} {
			m := res.Metrics[name]
			if math.Abs(m.Value-want) > 1e-9 {
				t.Errorf("%+v: %s = %v, want %v", c.sp, name, m.Value, want)
			}
			if m.Raw != 0 && (m.Value == m.Raw || name == "put_phase1_p50_ms" && c.sp.PutsWait) {
				t.Errorf("%+v: %s: raw %v beside %v", c.sp, name, m.Raw, m.Value)
			}
		}
	}
}

// The smoke run: one second of put_burst, untraced and traced, must be
// correct, and the metric names it emits must be exactly the ones
// BENCHMARK.json lists — in both directions.
func TestSmokeRunMatchesContract(t *testing.T) {
	contract, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range contract.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	sp, err := findSpec("put_burst")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		out := t.TempDir()
		res, err := runWorkload(runOpts{sp: sp, seed: 3, seconds: time.Second, traced: traced, outDir: out, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d problems=%v", traced, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		want := contract.EndToEnd
		if traced {
			want = contract.PerLayer
		}
		var wantNames, gotNames []string
		for _, m := range want {
			wantNames = append(wantNames, m.Name)
			if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
		for n, m := range res.Metrics {
			gotNames = append(gotNames, n)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v", n, m.Value)
			}
		}
		sort.Strings(wantNames)
		sort.Strings(gotNames)
		if strings.Join(wantNames, "\n") != strings.Join(gotNames, "\n") {
			t.Errorf("traced=%v: emitted metrics\n%v\nBENCHMARK.json lists\n%v", traced, gotNames, wantNames)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || len(line) != 4 {
			t.Errorf("contract line has keys %v (err %v), want exactly correct, attempted, failed, metrics", line, err)
		}
		if !traced {
			for _, m := range contract.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			continue
		}
		// Every cause in the trace file resolves to a span in the same file.
		raw, err := os.ReadFile(filepath.Join(out, "trace-put_burst.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[uint64]bool)
		var spans []span
		for _, l := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var s span
			if err := json.Unmarshal(l, &s); err != nil {
				t.Fatalf("trace line %q: %v", l, err)
			}
			ids[s.ID] = true
			spans = append(spans, s)
		}
		if len(spans) < 100 {
			t.Errorf("only %d spans traced", len(spans))
		}
		for _, s := range spans {
			if s.Cause != 0 && !ids[s.Cause] {
				t.Fatalf("span %d (%s): cause %d is not in the file", s.ID, s.Name, s.Cause)
			}
		}
	}
}
