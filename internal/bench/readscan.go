package bench

import (
	"fmt"
	"math/rand"

	"wedgechain/internal/client"
	"wedgechain/internal/edge"
	"wedgechain/internal/workload"
)

// scanWidths is the R1 x axis: keys per scanned range.
var scanWidths = []int{10, 100, 1000}

// scanShards is the R1 series axis: shard edges the scan scatter-gathers
// across.
var scanShards = []int{1, 2, 4}

// ReadScanBench (R1) measures the verified-scan read workload: a
// preloaded, compacted keyspace served by 1..N shard edges, scanned
// closed-loop with uniformly placed ranges of increasing width. Every
// scan is fully verified — per-shard Merkle range proofs, boundary
// coverage, k-way newest-wins merge — so the numbers price the proof
// machinery, not a trusting read. Wider ranges amortize the fixed
// per-scan cost (request RTT, signature, L0 evidence) over more rows;
// more shards split the proof work but add scatter-gather fan-out, which
// is the trade-off the table exposes.
func ReadScanBench(scale Scale) *Table {
	t := &Table{
		ID:     "R1",
		Title:  "Verified range scans: latency and row throughput vs range width vs shards (1 client, closed loop)",
		Header: []string{"Shards", "Width (keys)", "Mean latency (ms)", "Scans/s", "Rows/s", "Rows/scan"},
	}
	preload := scale.preload(20_000)
	rounds := scale.rounds(60)
	for _, shards := range scanShards {
		for _, width := range scanWidths {
			if width >= preload {
				continue
			}
			mean, scansPerSec, rowsPerSec, rowsPerScan := runScans(shards, preload, width, rounds)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(shards),
				fmt.Sprint(width),
				f1(mean),
				f1(scansPerSec),
				f1(rowsPerSec),
				f1(rowsPerScan),
			})
		}
	}
	t.Notes = append(t.Notes,
		"every scan is verified end-to-end: per-shard Merkle page-range proofs, boundary completeness, newest-wins merge",
		"closed loop, scatter-gather: a scan settles only when every shard's proof verified (Phase II)",
	)
	return t
}

// runScans builds one world, preloads and compacts it, then drives
// closed-loop verified scans through the sharded session, returning mean
// latency (ms), scans/s, rows/s and rows per scan.
func runScans(shards, preload, width, rounds int) (mean, scansPerSec, rowsPerSec, rowsPerScan float64) {
	w := BuildWorld(WorldCfg{
		System:   Wedge,
		Shards:   shards,
		Clients:  1,
		Batch:    100,
		KeySpace: preload,
		Preload:  preload,
		Place:    defaultPlace,
		Rounds:   1,
		Edge:     edge.Config{FlushEvery: int64(10e6)},
	})
	w.Preload()
	session := w.WedgeSessions[0]
	rng := rand.New(rand.NewSource(42))

	var totalLat int64
	rows := 0
	started := w.Sim.Now()
	for r := 0; r < rounds; r++ {
		lo := rng.Intn(preload - width)
		start := workload.KeyName(lo)
		end := workload.KeyName(lo + width)
		t0 := w.Sim.Now()
		ops, envs := session.Scan(t0, start, end, 0)
		w.Sim.Inject(envs)
		ok := w.Sim.RunWhile(func() bool {
			for _, op := range ops {
				if !op.Done {
					return true
				}
			}
			return false
		}, t0+int64(600e9))
		if !ok {
			panic(fmt.Sprintf("bench: scan stalled (shards=%d width=%d)", shards, width))
		}
		for _, op := range ops {
			if op.Err != nil {
				panic(fmt.Sprintf("bench: scan failed: %v", op.Err))
			}
		}
		rows += len(client.MergeScanResults(ops, 0))
		totalLat += w.Sim.Now() - t0
	}
	elapsed := float64(w.Sim.Now()-started) / 1e9
	mean = float64(totalLat) / float64(rounds) / 1e6
	scansPerSec = float64(rounds) / elapsed
	rowsPerSec = float64(rows) / elapsed
	rowsPerScan = float64(rows) / float64(rounds)
	return mean, scansPerSec, rowsPerSec, rowsPerScan
}
