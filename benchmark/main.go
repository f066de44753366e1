// Command benchmark is WedgeChain's macro benchmark: it assembles, in one
// process, the state machines the wedge-cloud, wedge-edge and wedge-client
// binaries deploy — each behind its own TCP endpoint on loopback, so every
// frame crosses a real socket, the frame scheduler and the verify pool —
// offers them a seeded workload, checks every result against a model, and
// reports end-to-end metrics (untraced runs) and a per-layer budget timed
// from outside the layers (traced runs). BENCHMARK.json at the root of the
// repository is its contract; README.md in this directory explains every
// metric and workload.
//
//	bash benchmark/run.sh --workload put_burst --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1            # every workload, both modes, results.json
//	bash benchmark/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	// min(cores, 4): the load generator, the five-node cluster and the
	// verify pools share these; recorded with every result.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spin" {
		os.Exit(spinMain(os.Args[2:]))
	}
	var (
		workload  = flag.String("workload", "", "run this one workload and print its result as the last line (empty = every workload, both modes)")
		seed      = flag.Int64("seed", 1, "seed the whole op schedule is generated from")
		seconds   = flag.Float64("seconds", 0, "measured interval in seconds (0 = run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		outDir    = flag.String("out", "benchmark/out", "directory for results.json, trace files and scratch log directories")
		contract  = flag.String("benchmark", "BENCHMARK.json", "the benchmark's contract file")
		probe     = flag.Bool("probe", false, "with every workload: also run the saturation and capacity probes")
		resultOut = flag.String("result", "", "also write the full result (sample counts, spreads, notes) to this file")
		setups    = flag.Int("setups", setupRepeats, "set-ups per run; setup_s is their median")
		window    = flag.Int("window", 0, "closed loop: override the Phase II window (saturation probe)")
		scale     = flag.Float64("scale", 1, "open loop: multiply every offered rate (capacity probe)")
	)
	flag.Parse()
	if *seconds <= 0 {
		b, err := loadBenchmarkFile(*contract)
		if err != nil {
			fatal(err)
		}
		*seconds = float64(b.RunSeconds)
	}
	if *workload == "" {
		os.Exit(suiteMain(*seed, *seconds, *outDir, *contract, *probe))
	}
	sp, err := findSpec(*workload)
	if err != nil {
		fatal(err)
	}
	stopSpinners := startSpinners()
	res, err := runWorkload(runOpts{
		sp: sp, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		outDir: *outDir, setups: *setups, window: *window, scale: *scale,
	})
	stopSpinners()
	if err != nil {
		fatal(err)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "benchmark: note:", n)
	}
	if *resultOut != "" {
		if err := writeJSON(*resultOut, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(contractLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// contractLine is the one-line result the driver reads: exactly correct,
// attempted, failed and metrics, each metric exactly a value and a unit.
func contractLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]mv)}
	for name, m := range res.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(raw)
}

// suiteFile is results.json: every workload's untraced and traced run.
type suiteFile struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
	Probes     []probe   `json:"probes,omitempty"`
}

// probe is one validity pre-check printed with the results.
type probe struct {
	Workload string  `json:"workload"`
	What     string  `json:"what"`
	Setting  float64 `json:"setting"`
	OpsPerS  float64 `json:"ops_per_s"`
	Valid    bool    `json:"valid"`
}

// child runs one workload in a fresh process, so its set-up time, CPU
// time and peak memory are its own.
func child(outDir string, args ...string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
	defer os.Remove(path)
	cmd := exec.Command(self, append(args, "-out", outDir, "-result", path)...)
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func suiteMain(seed int64, seconds float64, outDir, contract string, probes bool) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	suite := suiteFile{Seed: seed, Seconds: seconds, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	bad := false
	common := []string{"-benchmark", contract, "-seed", fmt.Sprint(seed)}
	for i := range workloads {
		sp := &workloads[i]
		var untraced *result
		for _, traced := range []string{"0", "1"} {
			fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s)...\n", sp.Name, traced)
			res, err := child(outDir, append(common, "-workload", sp.Name, "-seconds", fmt.Sprint(seconds), "-trace", traced)...)
			if err != nil {
				fatal(err)
			}
			if traced == "0" {
				untraced = res
			} else if base := untraced.Metrics["cpu_us_per_op"].Raw; base > 0 {
				// Tracing overhead: the traced run's CPU per op against the
				// untraced run's, both as read.
				util := res.Metrics["load.cpu_utilisation"].Value * float64(res.GOMAXPROCS) * res.Seconds * 1e6
				done := float64(res.Attempted - res.Failed)
				if done > 0 {
					res.Metrics["budget.trace_overhead_pct"] = metricValue{Value: (util/done/base - 1) * 100, Unit: "%"}
				}
			}
			suite.Runs = append(suite.Runs, res)
			bad = bad || !res.Correct || !res.Valid || res.Failed > 0
		}
		if !probes {
			continue
		}
		short := append(common, "-workload", sp.Name, "-seconds", "5", "-setups", "1")
		if sp.Closed {
			for _, w := range []int{sp.Window / 2, sp.Window, sp.Window * 2} {
				res, err := child(outDir, append(short, "-window", fmt.Sprint(w))...)
				if err != nil {
					fatal(err)
				}
				suite.Probes = append(suite.Probes, probe{sp.Name, "phase II window", float64(w), res.Metrics["ops_per_s"].Value, res.Valid})
			}
			continue
		}
		for _, x := range []float64{1.25, 1.5, 2} {
			res, err := child(outDir, append(short, "-scale", fmt.Sprint(x))...)
			if err != nil {
				fatal(err)
			}
			offered := x * untraced.Metrics["ops_per_s"].Value
			got := res.Metrics["ops_per_s"].Value
			suite.Probes = append(suite.Probes, probe{sp.Name, "offered rate x", x, got, res.Valid && res.Failed == 0 && got > 0.95*offered})
		}
	}
	printSuite(&suite)
	if err := writeJSON(filepath.Join(outDir, "results.json"), &suite); err != nil {
		fatal(err)
	}
	if bad {
		return 1
	}
	return 0
}

func printSuite(s *suiteFile) {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, r := range s.Runs {
		mode := "end-to-end"
		if r.Traced {
			mode = "per-layer"
		}
		fmt.Fprintf(w, "\n%s\t%s\tseed %d\t%.0f s\tGOMAXPROCS %d\tref_verify_us %.2f\tcorrect=%v valid=%v attempted=%d failed=%d\n",
			r.Workload, mode, r.Seed, r.Seconds, r.GOMAXPROCS, r.RefUS, r.Correct, r.Valid, r.Attempted, r.Failed)
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := r.Metrics[n]
			raw := ""
			if m.Raw != 0 {
				raw = fmt.Sprintf("raw=%.4f", m.Raw)
			}
			fmt.Fprintf(w, "  %s\t%.4f\t%s\tn=%d\tspread=%.4f\t%s\n", n, m.Value, m.Unit, m.N, m.Spread, raw)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  INCORRECT: %s\n", p)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	for _, p := range s.Probes {
		fmt.Fprintf(w, "probe\t%s\t%s = %g\tops_per_s %.1f\tholds=%v\n", p.Workload, p.What, p.Setting, p.OpsPerS, p.Valid)
	}
	w.Flush()
}

// compareMain prints, per workload and end-to-end metric, both files'
// values, how much worse B is than A as a share of A, the metric's bound
// and a verdict. It fails on any metric past its bound, on more failed
// operations, and on an incorrect or invalid run.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	contract := fs.String("benchmark", "BENCHMARK.json", "the benchmark's contract file (bounds and directions)")
	scale := fs.Float64("bounds", 1, "multiply every bound (2 when comparing different seeds)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] [-bounds 1] A.json B.json")
		return 2
	}
	b, err := loadBenchmarkFile(*contract)
	if err != nil {
		fatal(err)
	}
	load := func(path string) map[string]*result {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var s suiteFile
		if err := json.Unmarshal(raw, &s); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		m := make(map[string]*result)
		for _, r := range s.Runs {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	a, bb := load(fs.Arg(0)), load(fs.Arg(1))
	failed := false
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tA\tB\tworse by\tbound\tverdict")
	for _, wl := range b.Workloads {
		ra, rb := a[wl.Name], bb[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\t-\tFAIL (missing run)\n", wl.Name)
			failed = true
			continue
		}
		for _, m := range b.EndToEnd {
			row := compareMetric(m, ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value, *scale)
			failed = failed || !row.pass
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, row.a, row.b, row.worse*100, row.bound*100, row.verdict())
		}
		for _, r := range []*result{ra, rb} {
			if !r.Correct || !r.Valid {
				fmt.Fprintf(w, "%s\trun\t\t\t\t\tFAIL (correct=%v valid=%v)\n", wl.Name, r.Correct, r.Valid)
				failed = true
			}
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%s\tfailed\t%d\t%d\t\t\tFAIL (more failed operations)\n", wl.Name, ra.Failed, rb.Failed)
			failed = true
		}
	}
	w.Flush()
	if failed {
		return 1
	}
	return 0
}

type compareRow struct {
	a, b, worse, bound float64
	pass               bool
}

func (r compareRow) verdict() string {
	if r.pass {
		return "PASS"
	}
	return "FAIL"
}

// compareMetric measures how much worse b is than a in the metric's bad
// direction, as a share of a.
func compareMetric(m metricDef, a, b, boundScale float64) compareRow {
	row := compareRow{a: a, b: b, bound: m.Bound * boundScale}
	if a != 0 {
		row.worse = (b - a) / a
		if m.Better == "higher" {
			row.worse = -row.worse
		}
	}
	row.pass = a != 0 && b != 0 && row.worse <= row.bound
	return row
}
