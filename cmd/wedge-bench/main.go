// Command wedge-bench regenerates the paper's evaluation: every table and
// figure of Section VI plus the ablations in DESIGN.md and the shard
// scaling curve (S1).
//
// Usage:
//
//	wedge-bench -list
//	wedge-bench -run F4a            # one experiment, full scale
//	wedge-bench -run all -quick     # everything, reduced rounds
//	wedge-bench -run S1 -json -     # machine-readable results on stdout
//	wedge-bench -run S1,R1 -json out.json    # several ids, one report
//	wedge-bench -run all -quick -json bench.json   # CI artifact
//
// The exit status is 1 when any experiment reports an error (a lost
// write, an honest conviction, an arm that could not run); the tables and
// the -json report are still written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wedgechain/internal/bench"
	"wedgechain/internal/obs"
)

// jsonResult is one experiment's machine-readable output: its table plus
// how long it took.
type jsonResult struct {
	*bench.Table
	WallSeconds float64 `json:"wall_seconds"`
}

// jsonReport is the top-level -json document, a stable schema suitable
// for CI artifacts and trajectory files.
type jsonReport struct {
	Schema     string       `json:"schema"`
	Scale      string       `json:"scale"`
	StartedAt  string       `json:"started_at"`
	Experiment string       `json:"experiment"`
	Results    []jsonResult `json:"results"`
}

func main() {
	var (
		run         = flag.String("run", "all", "experiment id(s), comma-separated (see -list), or 'all'")
		quick       = flag.Bool("quick", false, "reduced rounds for a fast pass")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath    = flag.String("json", "", "write machine-readable results to this file ('-' = stdout)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof while experiments run (empty = disabled)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		bench.LiveMetrics = obs.Default()
		ms, err := obs.StartServer(*metricsAddr, bench.LiveMetrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "wedge-bench metrics on http://%s/metrics (pprof at /debug/pprof/)\n", ms.Addr)
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("  %-4s %s\n", e.ID, e.Doc)
		}
		return
	}
	scale := bench.Full
	scaleName := "full"
	if *quick {
		scale = bench.Quick
		scaleName = "quick"
	}

	report := jsonReport{
		Schema:     "wedge-bench/v1",
		Scale:      scaleName,
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
		Experiment: *run,
	}
	// Human-readable tables go to stdout unless stdout is the JSON sink.
	tablesOut := os.Stdout
	if *jsonPath == "-" {
		tablesOut = os.Stderr
	}

	failed, err := runExperiments(*run, scale, tablesOut, &report)
	if err == nil && *jsonPath != "" {
		// Written even when experiments failed: the report says which.
		err = writeReport(*jsonPath, &report, tablesOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) reported errors\n", failed)
		os.Exit(1)
	}
}

func writeReport(path string, report *jsonReport, tablesOut io.Writer) error {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(tablesOut, "wrote %s (%d experiments)\n", path, len(report.Results))
	return nil
}

// runExperiments runs the experiments named by ids — "all" or a
// comma-separated list, several ids landing in one report — printing each
// table to out and appending it to report. It returns how many of them
// reported errors; an unknown id is an error of its own.
func runExperiments(ids string, scale bench.Scale, out io.Writer, report *jsonReport) (failed int, err error) {
	names := bench.IDs()
	if ids != "all" {
		names = strings.Split(ids, ",")
	}
	for _, id := range names {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		fn, ok := bench.Lookup(id)
		if !ok {
			return failed, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		start := time.Now()
		t := fn(scale)
		wall := time.Since(start).Seconds()
		t.Print(out)
		fmt.Fprintf(out, "  [%s completed in %.1fs wall time]\n", id, wall)
		report.Results = append(report.Results, jsonResult{Table: t, WallSeconds: wall})
		if len(t.Errors) > 0 {
			failed++
		}
	}
	return failed, nil
}
