package main

import (
	"io"
	"strings"
	"testing"

	"wedgechain/internal/bench"
)

// TestRunExperimentsReportsFailures: an experiment that returns a table
// with errors makes the run count as failed — so wedge-bench exits 1 and
// `make experiments` fails — while its table still reaches the report.
func TestRunExperimentsReportsFailures(t *testing.T) {
	saved := bench.Experiments
	defer func() { bench.Experiments = saved }()
	bench.Experiments = nil
	register := func(id string, errs ...string) {
		e := saved[0] // the registry's element type has no name
		e.ID = id
		e.Fn = func(bench.Scale) *bench.Table {
			return &bench.Table{ID: id, Header: []string{"Arm"}, Errors: errs}
		}
		bench.Experiments = append(bench.Experiments, e)
	}
	register("OK")
	register("LOST", "noise: 2 certified writes lost")
	register("CONV", "clean: honest node edge-1 convicted", "noise: write 3 failed")

	for _, c := range []struct {
		ids        string
		failed     int
		results    int
		unknownErr bool
	}{
		{"OK", 0, 1, false},
		{"LOST", 1, 1, false},
		{"OK, LOST,CONV", 2, 3, false},
		{"all", 2, 3, false},
		{"OK,nope", 0, 1, true},
	} {
		var report jsonReport
		failed, err := runExperiments(c.ids, bench.Quick, io.Discard, &report)
		if failed != c.failed || (err != nil) != c.unknownErr || len(report.Results) != c.results {
			t.Errorf("-run %q: failed=%d err=%v results=%d, want failed=%d unknown=%v results=%d",
				c.ids, failed, err, len(report.Results), c.failed, c.unknownErr, c.results)
		}
	}

	var report jsonReport
	var out strings.Builder
	runExperiments("CONV", bench.Quick, &out, &report)
	if got := report.Results[0].Errors; len(got) != 2 {
		t.Errorf("report carries %d errors, want 2", len(got))
	}
	if !strings.Contains(out.String(), "ERROR: clean: honest node edge-1 convicted") {
		t.Errorf("printed table does not show the error:\n%s", out.String())
	}
}
