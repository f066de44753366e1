package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"wedgechain/internal/wire"
)

// metricValue is one reported number. N is the sample count behind a
// percentile; Spread is the inter-quartile range of the per-window values
// of the same metric within the run. Raw is the reading before it was
// scaled to the reference host (ref.go), on the metrics that are.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
	Raw    float64 `json:"raw,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Seconds    float64                `json:"seconds"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	RefUS      float64                `json:"ref_verify_us"` // the host's speed during the interval (ref.go)
	PeakRSSMB  float64                `json:"peak_rss_mb"`   // ru_maxrss at the end of the drain
	Correct    bool                   `json:"correct"`
	Valid      bool                   `json:"valid"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Problems   []string               `json:"problems,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// runOpts is what one run is asked to do.
type runOpts struct {
	sp      *spec
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string // trace file and log directories go here
	setups  int    // set-ups to time (the last one is measured)
	window  int    // closed loop: overrides sp.Window when > 0 (saturation probe)
	scale   float64
}

// rusage reads the process's CPU time so far (user + system, ns) and its
// peak resident set (MB; Linux reports KiB).
func rusage() (cpuNS int64, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), float64(ru.Maxrss) / 1024
}

// snapshot is the state of the always-on counters at one instant.
type snapshot struct {
	at        int64
	cpu       int64
	certBytes uint64 // certification traffic emitted onto the edge<->cloud links so far
}

// certKinds and mergeKinds are the two kinds of traffic on an edge<->cloud
// link: certification (digests and certificates) and compaction (data).
var (
	certKinds  = []wire.Kind{wire.KindBlockCertify, wire.KindBlockCertifyBatch, wire.KindBlockProof, wire.KindBlockCertBatch}
	mergeKinds = []wire.Kind{wire.KindMergeRequest, wire.KindMergeResponse}
)

func (c *cluster) snapshot() snapshot {
	s := snapshot{at: nowNS()}
	s.cpu, _ = rusage()
	for _, w := range append([]*nodeWrap{c.cloudWrap}, c.edgeWraps...) {
		s.certBytes += sumKinds(&w.linkBytes, certKinds...)
	}
	return s
}

// runWorkload sets the workload up opts.setups times, measures the last
// set-up for opts.seconds, drains it, checks it and tears it down.
func runWorkload(o runOpts) (*result, error) {
	sp := o.sp
	if o.window > 0 || (o.scale > 0 && o.scale != 1) {
		scaled := *sp
		if o.window > 0 {
			scaled.Window = o.window
		}
		if o.scale > 0 {
			scaled.BurstRate *= o.scale
			scaled.PutRate *= o.scale
			scaled.GetRate *= o.scale
			scaled.ScanRate *= o.scale
		}
		sp = &scaled
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	sched := genSchedule(sp, o.seed, warmup+o.seconds)

	var setupS []float64
	for rep := 0; rep < o.setups; rep++ {
		last := rep == o.setups-1
		runtime.GC()
		began := nowNS()
		var tr *tracer
		if last && o.traced {
			tr = newTracer(o.seed)
		}
		c, err := newCluster(sp, o.seed, tr, o.outDir)
		if err != nil {
			return nil, err
		}
		if err := c.runPreload(o.seed); err != nil {
			c.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		start := nowNS()
		t0 := start + int64(warmup)
		t1 := t0
		if last {
			t1 += int64(o.seconds)
		}
		stopGen := c.startGenerators(sched, start, t1)
		sleepUntil(t0)
		setupS = append(setupS, float64(t0-began)/1e9)
		if !last {
			stopGen()
			c.close()
			continue
		}
		res, err := c.measure(o, sp, t0, t1, stopGen)
		c.close()
		if err != nil {
			return nil, err
		}
		if cerr := c.firstErr(); cerr != nil {
			res.Correct = false
			res.Problems = append(res.Problems, cerr.Error())
		}
		if !o.traced {
			res.Metrics["setup_s"] = metricValue{Value: median(setupS), Unit: "s", N: len(setupS), Spread: iqr(setupS)}
		}
		return res, nil
	}
	return nil, fmt.Errorf("no set-up requested")
}

// sleepUntil blocks until harness time t. It sleeps in nanosleep(2), not
// on a Go timer: an idle Go scheduler waits in epoll with millisecond
// granularity, which would make every open-loop op about half a
// millisecond late — a third of the latencies being measured.
func sleepUntil(t int64) {
	for {
		d := t - nowNS()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// startGenerators launches one generator goroutine per client endpoint on
// the schedule whose time zero is start; they stop issuing at stopAt. The
// returned function waits for them.
func (c *cluster) startGenerators(sched *schedule, start, stopAt int64) (wait func()) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if c.sp.Closed {
		c.setPrograms(sched.Program, c.sp.Window, stopAt)
		time.AfterFunc(time.Duration(stopAt-nowNS()), func() { close(stop) })
	}
	for _, ep := range c.endpoints {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			if c.sp.Closed {
				ep.runClosed(stop)
			} else {
				ep.runOpen(c, sched.Open, start, stopAt)
			}
		}(ep)
	}
	return wg.Wait
}

// measure runs the measured interval [t0, t1) of the cluster's last
// set-up, then drains, collects and computes.
func (c *cluster) measure(o runOpts, sp *spec, t0, t1 int64, waitGen func()) (*result, error) {
	res := &result{
		Workload: sp.Name, Seed: o.seed, Traced: o.traced, Seconds: o.seconds.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: make(map[string]metricValue),
	}
	if c.tr != nil {
		c.tr.on.Store(true)
	}
	before := c.counters()
	sampled := startSampler()
	snaps := []snapshot{c.snapshot()}
	for w := 1; w <= windows; w++ {
		sleepUntil(t0 + (t1-t0)*int64(w)/windows)
		snaps = append(snaps, c.snapshot())
	}
	var heapBytes float64
	res.RefUS, heapBytes = sampled.finish()
	if c.tr != nil {
		c.tr.on.Store(false)
	}
	waitGen()

	// Drain: every acknowledged write must be certified and every read
	// settled; what is not by the limit has failed.
	if err := c.waitQuiet(drainLimit); err != nil {
		res.Notes = append(res.Notes, "drain: "+err.Error())
	}
	quiet := c.snapshot()
	after := c.counters()
	_, res.PeakRSSMB = rusage()

	var recs []*opRec
	for _, s := range c.sessions {
		s := s
		s.ep.tcp.DoSession(s.id, func(int64) []wire.Envelope {
			recs = append(recs, s.recs...)
			return nil
		})
	}
	c.stop()

	ops := summarise(recs, t0, t1, quiet.at)
	res.Attempted, res.Failed = ops.attempted, ops.failed
	res.Problems = c.oracle.settle()
	delta := after.minus(before)
	for _, must := range []struct {
		name string
		v    uint64
	}{
		{"client disputes", delta.disputes}, {"cloud disputes", delta.cloudDisputes}, {"convictions", delta.guilty},
		{"certification conflicts", delta.conflicts}, {"writes shed by an edge", delta.shed}, {"frames dropped on a full lane", delta.laneDrops},
	} {
		if must.v != 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %d (must be 0)", must.name, must.v))
		}
	}
	for _, v := range c.cloud.Punishments().Verdicts() {
		res.Problems = append(res.Problems, fmt.Sprintf("verdict against %s (block %d): %s", v.Edge, v.BID, v.Reason))
	}
	var recover recoverStats
	if sp.Durable {
		var err error
		if recover, err = c.checkRecovery(); err != nil {
			res.Problems = append(res.Problems, "durability: "+err.Error())
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	res.Valid = true

	if !o.traced {
		endToEndMetrics(res, sp, ops, snaps, quiet, heapBytes)
	} else {
		spans := append(c.tr.spans, ops.roots...)
		computeSelf(spans)
		c.layerMetrics(res, aggregate(spans), ops, delta, snaps, recover)
		path := filepath.Join(o.outDir, "trace-"+sp.Name+".jsonl")
		if err := writeTrace(path, spans); err != nil {
			return nil, err
		}
	}
	validate(res, sp, ops, snaps)
	return res, nil
}

// opSummary is what the op records say about the measured interval.
type opSummary struct {
	attempted, failed int

	// Latencies in ms, by due time, of ops due inside the interval;
	// win* hold the same per window.
	phase1, phase2, get, scan, lag, late  []float64
	winPhase1, winPhase2, winGet, winScan [windows][]float64

	completed     int          // ops completed and verified inside the interval
	winCompleted  [windows]int // the same per window
	putsCertified int          // entries certified between t0 and quiescence
	winPuts       [windows]int // entries certified in each window
	putsBefore    int          // entries certified before t0: preload and warm-up
	busyNS        int64        // sum over measured ops of due -> completion
	mainPut       opKind

	roots []span // one root span per traced op
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// summarise turns the op records into samples. An op that never
// completed is failed and recorded at the end of the drain.
func summarise(recs []*opRec, t0, t1, quiet int64) *opSummary {
	s := &opSummary{}
	bursts := 0
	for _, r := range recs {
		end := func(t int64) int64 {
			if t == 0 || r.failed {
				return quiet
			}
			return t
		}
		complete := r.done
		if r.kind.isPut() {
			complete = r.p2
			if r.p2 != 0 && r.p2 < t0 {
				s.putsBefore += r.n
			}
			if r.p2 >= t0 {
				s.putsCertified += r.n
				if w := windowOf(r.p2, t0, t1, windows); w >= 0 {
					s.winPuts[w] += r.n
				}
			}
		} else if r.p1 != 0 {
			complete = r.p1 // a read counts when its proof verified
		}
		if w := windowOf(complete, t0, t1, windows); w >= 0 && !r.failed {
			s.completed += r.n
			s.winCompleted[w] += r.n
		}
		if r.root != 0 {
			s.roots = append(s.roots, span{ID: r.root, Trace: fmt.Sprintf("op/%d", r.root), Name: "load.op." + r.kind.String(),
				Node: "load", Start: r.due, End: end(complete)})
		}
		w := windowOf(r.due, t0, t1, windows)
		if w < 0 {
			continue
		}
		s.attempted += r.n
		if r.failed || complete == 0 || (r.kind.isPut() && r.p1 == 0) {
			s.failed += r.n
		}
		s.late = append(s.late, ms(r.submit-r.due))
		s.busyNS += end(complete) - r.due
		switch r.kind {
		case opBurst, opPut:
			if r.kind == opBurst {
				bursts++
			}
			l1, l2 := ms(end(r.p1)-r.due), ms(end(r.p2)-r.due)
			s.phase1, s.phase2 = append(s.phase1, l1), append(s.phase2, l2)
			s.winPhase1[w], s.winPhase2[w] = append(s.winPhase1[w], l1), append(s.winPhase2[w], l2)
			s.lag = append(s.lag, l2-l1)
		case opGet:
			l := ms(end(r.p1) - r.due)
			s.get, s.winGet[w] = append(s.get, l), append(s.winGet[w], l)
		case opScan:
			l := ms(end(r.p1) - r.due)
			s.scan, s.winScan[w] = append(s.scan, l), append(s.winScan[w], l)
		}
	}
	s.mainPut = opPut
	if bursts*2 > len(s.phase1) {
		s.mainPut = opBurst
	}
	return s
}

// endToEndMetrics fills the untraced run's metrics (all but setup_s).
// What is processor time — processor time per op, the latency of reads, of
// writes where they wait for nothing else, the closed loop's throughput — is
// scaled to the reference host; what is set by a schedule, a timer or an
// injected delay is reported as read.
func endToEndMetrics(res *result, sp *spec, ops *opSummary, snaps []snapshot, quiet snapshot, heapBytes float64) {
	first, last := snaps[0], snaps[len(snaps)-1]
	secs := float64(last.at-first.at) / 1e9
	perWindow := func(f func(w int) float64) float64 {
		var vs []float64
		for w := 0; w < windows; w++ {
			vs = append(vs, f(w))
		}
		return iqr(vs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.Metrics["ops_per_s"] = metricValue{Value: float64(ops.completed) / secs, Unit: "1/s", N: ops.completed,
		Spread: perWindow(func(w int) float64 {
			return float64(ops.winCompleted[w]) / (float64(snaps[w+1].at-snaps[w].at) / 1e9)
		})}
	p50 := func(name string, all []float64, win *[windows][]float64) {
		res.Metrics[name] = metricValue{Value: percentile(all, 0.5), Unit: "ms", N: len(all),
			Spread: perWindow(func(w int) float64 { return percentile(win[w], 0.5) })}
	}
	p50("put_phase1_p50_ms", ops.phase1, &ops.winPhase1)
	p50("put_phase2_p50_ms", ops.phase2, &ops.winPhase2)
	p50("get_p50_ms", ops.get, &ops.winGet)
	p50("scan_p50_ms", ops.scan, &ops.winScan)
	res.Metrics["cert_bytes_per_put"] = metricValue{
		Value: ratio(float64(quiet.certBytes-first.certBytes), float64(ops.putsCertified)), Unit: "B", N: ops.putsCertified,
		Spread: perWindow(func(w int) float64 {
			return ratio(float64(snaps[w+1].certBytes-snaps[w].certBytes), float64(ops.winPuts[w]))
		})}
	res.Metrics["cpu_us_per_op"] = metricValue{
		Value: ratio(float64(last.cpu-first.cpu)/1e3, float64(ops.completed)), Unit: "us", N: ops.completed,
		Spread: perWindow(func(w int) float64 {
			return ratio(float64(snaps[w+1].cpu-snaps[w].cpu)/1e3, float64(ops.winCompleted[w]))
		})}
	// Every node keeps what it has stored in memory, so memory grows with
	// the writes a run got through; per stored write it compares between a
	// run that certified 150,000 and one that certified 600,000.
	stored := ops.putsBefore + ops.putsCertified
	res.Metrics["heap_bytes_per_put"] = metricValue{Value: ratio(heapBytes, float64(stored)), Unit: "B", N: stored}

	k := scaleToRef(res.RefUS)
	scaled := func(by float64, names ...string) {
		for _, name := range names {
			m := res.Metrics[name]
			m.Raw, m.Value, m.Spread = m.Value, m.Value*by, m.Spread*by
			res.Metrics[name] = m
		}
	}
	scaled(k, "cpu_us_per_op", "get_p50_ms", "scan_p50_ms")
	if !sp.PutsWait {
		scaled(k, "put_phase1_p50_ms", "put_phase2_p50_ms")
	}
	if sp.Closed {
		scaled(1/k, "ops_per_s")
	}
}

// validate marks a run whose load generator, not the system, shaped the
// numbers: an open loop that ran later than the latencies it reports, or
// a closed loop that left the processors idle.
func validate(res *result, sp *spec, ops *opSummary, snaps []snapshot) {
	first, last := snaps[0], snaps[len(snaps)-1]
	util := float64(last.cpu-first.cpu) / float64(last.at-first.at) / float64(runtime.GOMAXPROCS(0))
	if sp.Closed {
		if util < 0.85 {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("closed loop left processors idle: utilisation %.2f < 0.85", util))
		}
		return
	}
	late := median(ops.late)
	floor := median(ops.get)
	if p1 := median(ops.phase1); floor == 0 || (p1 > 0 && p1 < floor) {
		floor = p1
	}
	if late > floor/4 {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("generator ran late: median lateness %.3f ms exceeds a quarter of the smallest median latency %.3f ms", late, floor))
	}
}
