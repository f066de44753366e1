package bench

import (
	"fmt"

	"wedgechain/internal/edge"
)

// shardSweep is the S1 x axis: the edge counts of the scaling curve.
var shardSweep = []int{1, 2, 4, 8}

// ShardScaling (S1) measures the scaling lever the paper's design makes
// possible: because the cloud is off the write critical path (Phase I
// commits entirely at the edge), aggregate put throughput should grow by
// adding edge nodes and sharding the keyspace across them. Eight clients
// drive write bursts whose keys hash-route across 1, 2, 4, and 8 shard
// edges; with one edge every block cut serializes on a single node, with
// N edges the cuts proceed in parallel. Partial blocks are flush-cut
// (10 ms) since a burst's per-shard sub-batch no longer fills a whole
// block by itself — the same config is applied to every point of the
// sweep so the curve isolates the shard count.
func ShardScaling(scale Scale) *Table {
	t := &Table{
		ID:     "S1",
		Title:  "Shard scaling: aggregate put throughput vs edge count (8 clients, B=100)",
		Header: []string{"Shards", "Throughput (ops/s)", "Speedup", "Blocks/edge"},
	}
	rounds := scale.rounds(30)
	var base float64
	for _, shards := range shardSweep {
		w := BuildWorld(WorldCfg{
			System:         Wedge,
			Shards:         shards,
			Clients:        8,
			Batch:          100,
			Place:          defaultPlace,
			WritesPerRound: 100,
			Rounds:         rounds,
			WarmupRounds:   1,
			Edge:           edge.Config{FlushEvery: int64(10e6)},
		})
		w.Run(int64(3600e9))
		tput := w.Throughput()
		if shards == 1 {
			base = tput
		}
		var blocks uint64
		for _, en := range w.EdgeNodes {
			blocks += en.Stats().BlocksCut
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(shards),
			kops(tput),
			fmt.Sprintf("%.2fx", tput/base),
			fmt.Sprint(blocks / uint64(len(w.EdgeNodes))),
		})
	}
	t.Notes = append(t.Notes,
		"speedup is relative to the 1-shard row; every point uses the same flush-cut config")
	return t
}
