// Benchmarks regenerating the paper's evaluation, one per table/figure
// (DESIGN.md §3 maps each to its experiment). Each benchmark executes the
// corresponding experiment at reduced (Quick) scale and reports the
// summary rows as benchmark metrics; `cmd/wedge-bench -run <id>` produces
// the full-scale tables.
//
// The b.N loop re-runs the whole experiment; experiments are deterministic
// virtual-time simulations, so N=1 already yields exact numbers.
package wedgechain_test

import (
	"io"
	"strconv"
	"testing"

	"wedgechain/internal/bench"
)

// runExperiment executes one experiment per b.N and reports headline
// metrics extracted from the result table.
func runExperiment(b *testing.B, id string, metrics func(t *bench.Table, b *testing.B)) {
	fn, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		last = fn(bench.Quick)
	}
	if last != nil && metrics != nil {
		metrics(last, b)
	}
	if last != nil && testing.Verbose() {
		last.Print(io.Discard)
	}
}

// cell parses table cell (row, col) as a float, handling the "12.3K"
// (thousands) and "1.28x" (ratio) suffixes the tables use.
func cell(t *bench.Table, row, col int) float64 {
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return -1
	}
	s := t.Rows[row][col]
	mult := 1.0
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'K':
			mult = 1000
			s = s[:n-1]
		case 'x':
			s = s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return -1
	}
	return v * mult
}

// BenchmarkTable1RTT regenerates Table I (datacenter RTT matrix).
func BenchmarkTable1RTT(b *testing.B) {
	runExperiment(b, "T1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 3), "rtt_C_V_ms")
		b.ReportMetric(cell(t, 0, 5), "rtt_C_M_ms")
	})
}

// BenchmarkFig4aLatency regenerates Figure 4(a): put latency vs batch size.
func BenchmarkFig4aLatency(b *testing.B) {
	runExperiment(b, "F4a", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_B100_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_B2000_ms")
		b.ReportMetric(cell(t, 0, 2), "cloudonly_B100_ms")
		b.ReportMetric(cell(t, 0, 3), "edgebase_B100_ms")
	})
}

// BenchmarkFig4bThroughput regenerates Figure 4(b): throughput vs batch.
func BenchmarkFig4bThroughput(b *testing.B) {
	runExperiment(b, "F4b", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_B100_ops")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_B2000_ops")
	})
}

// BenchmarkFig5aWrites regenerates Figure 5(a): all-write scaling.
func BenchmarkFig5aWrites(b *testing.B) {
	runExperiment(b, "F5a", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_1c_ops")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_9c_ops")
		b.ReportMetric(cell(t, len(t.Rows)-1, 2), "cloudonly_9c_ops")
	})
}

// BenchmarkFig5bMixed regenerates Figure 5(b): 50/50 mixed workload.
func BenchmarkFig5bMixed(b *testing.B) {
	if testing.Short() {
		b.Skip("mixed workload preloads 3x5 worlds; skipped in -short")
	}
	runExperiment(b, "F5b", func(t *bench.Table, b *testing.B) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 1), "wedge_9c_ops")
		b.ReportMetric(cell(t, last, 2), "cloudonly_9c_ops")
		b.ReportMetric(cell(t, last, 3), "edgebase_9c_ops")
	})
}

// BenchmarkFig5cReads regenerates Figure 5(c): all-read workload.
func BenchmarkFig5cReads(b *testing.B) {
	if testing.Short() {
		b.Skip("read workload preloads 3x5 worlds; skipped in -short")
	}
	runExperiment(b, "F5c", func(t *bench.Table, b *testing.B) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 1), "wedge_9c_ops")
		b.ReportMetric(cell(t, last, 2), "cloudonly_9c_ops")
	})
}

// BenchmarkFig5dReadPath regenerates Figure 5(d): best-case read latency
// and verification overhead, measured with real crypto on this host.
func BenchmarkFig5dReadPath(b *testing.B) {
	runExperiment(b, "F5d", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_serve_ms")
		b.ReportMetric(cell(t, 0, 2), "wedge_verify_ms")
		b.ReportMetric(cell(t, 1, 1), "cloudonly_serve_ms")
	})
}

// BenchmarkFig6Phases regenerates Figure 6: Phase I vs Phase II rates.
func BenchmarkFig6Phases(b *testing.B) {
	runExperiment(b, "F6", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 4), "lag_B100_x")
		b.ReportMetric(cell(t, len(t.Rows)-1, 4), "lag_B1000_x")
	})
}

// BenchmarkFig7aCloudLoc regenerates Figure 7(a): cloud location sweep.
func BenchmarkFig7aCloudLoc(b *testing.B) {
	runExperiment(b, "F7a", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_cloudO_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_cloudM_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 2), "cloudonly_cloudM_ms")
	})
}

// BenchmarkFig7bEdgeLoc regenerates Figure 7(b): edge location sweep.
func BenchmarkFig7bEdgeLoc(b *testing.B) {
	runExperiment(b, "F7b", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_edgeC_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_edgeM_ms")
	})
}

// BenchmarkShardScaling regenerates S1: aggregate put throughput vs
// shard (edge) count — the multi-edge scaling curve.
func BenchmarkShardScaling(b *testing.B) {
	runExperiment(b, "S1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_1shard_ops")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_8shard_ops")
		b.ReportMetric(cell(t, len(t.Rows)-1, 2), "speedup_8shard_x")
	})
}

// BenchmarkReadScan regenerates R1: verified range scans, latency and
// row throughput vs range width vs shard count.
func BenchmarkReadScan(b *testing.B) {
	runExperiment(b, "R1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 2), "narrow_1shard_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 4), "wide_4shard_rows_per_s")
	})
}

// BenchmarkSecVIEDataset regenerates Section VI-E: dataset size sweep.
func BenchmarkSecVIEDataset(b *testing.B) {
	runExperiment(b, "DS1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "wedge_100K_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "wedge_max_ms")
	})
}

// BenchmarkEvidencePruning regenerates E1: read-evidence bytes and get
// throughput vs uncompacted L0 window depth.
func BenchmarkEvidencePruning(b *testing.B) {
	runExperiment(b, "E1", func(t *bench.Table, b *testing.B) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 2), "deep_miss_pruned_B")
		b.ReportMetric(cell(t, last, 4), "deep_pruned_gets_per_s")
	})
}

// BenchmarkAblationDataFree regenerates ablation A1: data-free vs
// full-data certification.
func BenchmarkAblationDataFree(b *testing.B) {
	runExperiment(b, "A1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "datafree_bytes_per_batch")
		b.ReportMetric(cell(t, 1, 1), "fulldata_bytes_per_batch")
	})
}

// BenchmarkAblationGossip regenerates ablation A2: gossip period vs
// omission detection latency.
func BenchmarkAblationGossip(b *testing.B) {
	runExperiment(b, "A2", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "detect_50ms_gossip_ms")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "detect_1s_gossip_ms")
	})
}

// BenchmarkAblationBaselineIndex regenerates ablation A3: Edge-baseline
// index maintenance policy.
func BenchmarkAblationBaselineIndex(b *testing.B) {
	runExperiment(b, "A3", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "mlsm_ms")
		b.ReportMetric(cell(t, 1, 1), "eager_ms")
	})
}

// BenchmarkAblationFreshness regenerates ablation A4: freshness window vs
// a stale-snapshot edge.
func BenchmarkAblationFreshness(b *testing.B) {
	runExperiment(b, "A4", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, 0, 1), "rejected_100ms_window")
		b.ReportMetric(cell(t, len(t.Rows)-1, 1), "rejected_2s_window")
	})
}
