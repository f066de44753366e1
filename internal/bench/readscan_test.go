package bench

import (
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/edge"
	"wedgechain/internal/workload"
)

// TestVerifiedScansOverPreloadedWorld pins the R1 machinery: a preloaded,
// compacted, sharded world serves verified scans whose derived results
// are exactly the preloaded key range — completeness and injection
// resistance as an exact regression gate (the simulation is
// deterministic).
func TestVerifiedScansOverPreloadedWorld(t *testing.T) {
	const preload = 2000
	w := BuildWorld(WorldCfg{
		System:   Wedge,
		Shards:   2,
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
	for _, c := range []struct{ lo, width int }{{0, 10}, {995, 10}, {500, 600}} {
		t0 := w.Sim.Now()
		ops, envs := session.Scan(t0, workload.KeyName(c.lo), workload.KeyName(c.lo+c.width), 0)
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
			t.Fatal("scan stalled")
		}
		kvs := client.MergeScanResults(ops, 0)
		if len(kvs) != c.width {
			t.Fatalf("scan [%d,+%d): %d rows, want %d", c.lo, c.width, len(kvs), c.width)
		}
		for i, kv := range kvs {
			if want := string(workload.KeyName(c.lo + i)); string(kv.Key) != want {
				t.Fatalf("row %d = %q, want %q", i, kv.Key, want)
			}
		}
	}
	// At least one shard edge must have served scan traffic, and every
	// edge merged (the proofs covered real level pages, not just L0).
	scans := uint64(0)
	for _, en := range w.EdgeNodes {
		st := en.Stats()
		scans += st.Scans
		if st.Merges == 0 {
			t.Fatal("an edge never merged; scans did not exercise level proofs")
		}
	}
	if scans == 0 {
		t.Fatal("no edge recorded scan traffic")
	}
}
