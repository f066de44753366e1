package bench

import (
	"testing"

	"wedgechain/internal/edge"
)

// TestShardScalingRaisesThroughput pins the tentpole property: the same
// write workload sustains higher aggregate put throughput on 4 shard
// edges than on 1, and the keyspace actually spreads — every shard edge
// cuts blocks. The simulation is deterministic, so this is an exact
// regression gate, not a flaky performance assertion.
func TestShardScalingRaisesThroughput(t *testing.T) {
	run := func(shards int) *World {
		w := BuildWorld(WorldCfg{
			System:         Wedge,
			Shards:         shards,
			Clients:        8,
			Batch:          100,
			Place:          defaultPlace,
			WritesPerRound: 100,
			Rounds:         3,
			WarmupRounds:   1,
			Edge:           edge.Config{FlushEvery: int64(10e6)},
		})
		w.Run(int64(3600e9))
		return w
	}
	w1 := run(1)
	w4 := run(4)
	t1, t4 := w1.Throughput(), w4.Throughput()
	if t4 <= t1 {
		t.Fatalf("4-shard throughput %.0f <= 1-shard %.0f ops/s; sharding must scale writes", t4, t1)
	}
	if len(w4.EdgeNodes) != 4 {
		t.Fatalf("4-shard world built %d edges", len(w4.EdgeNodes))
	}
	for i, en := range w4.EdgeNodes {
		st := en.Stats()
		if st.Writes == 0 || st.BlocksCut == 0 {
			t.Errorf("shard edge %d idle: %+v", i, st)
		}
	}
	if agg := w4.AggMetrics(); agg.Failed != 0 {
		t.Fatalf("sharded workload had %d failed ops", agg.Failed)
	}
}
