package wedgechain

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// waitMerged polls until every listed edge has performed at least one
// LSMerkle merge, so scans exercise level proofs, not just L0 evidence.
func waitMerged(t *testing.T, c *Cluster, edges ...NodeID) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		merged := true
		for _, id := range edges {
			st, err := c.EdgeStats(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Merges == 0 {
				merged = false
			}
		}
		if merged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("edges never merged; test parameters wrong")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedScanGloballyOrdered is the acceptance scenario: a 4-shard
// cluster, keys hash-spread over every edge, and one Scan call returning
// a globally ordered, completeness-verified result whose per-shard proofs
// were each checked client-side.
func TestShardedScanGloballyOrdered(t *testing.T) {
	const shards = 4
	c := newTestCluster(t, Config{Shards: shards, BatchSize: 2, L0Threshold: 2})
	cl, err := c.NewClient("c1", "")
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	model := map[string]string{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("scan-%03d", i)
		val := fmt.Sprintf("val-%03d", i)
		model[key] = val
		if _, err := cl.Put([]byte(key), []byte(val)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	// Overwrite a few keys so newest-wins is exercised across shards.
	for _, i := range []int{3, 17, 29} {
		key := fmt.Sprintf("scan-%03d", i)
		val := fmt.Sprintf("val-%03d-new", i)
		model[key] = val
		r, err := cl.Put([]byte(key), []byte(val))
		if err != nil {
			t.Fatalf("overwrite %s: %v", key, err)
		}
		// A write acknowledged by its run is read once its block is cut;
		// its certificate says it was.
		if err := r.WaitPhaseII(15 * time.Second); err != nil {
			t.Fatalf("overwrite %s: %v", key, err)
		}
	}
	waitMerged(t, c, EdgeID(1), EdgeID(2), EdgeID(3), EdgeID(4))

	check := func(start, end []byte, limit int, wantKeys []string) {
		t.Helper()
		kvs, phase, err := cl.Scan(start, end, limit)
		if err != nil {
			t.Fatalf("scan [%q,%q): %v", start, end, err)
		}
		if phase != PhaseII {
			t.Fatalf("scan [%q,%q) phase = %v", start, end, phase)
		}
		if len(kvs) != len(wantKeys) {
			t.Fatalf("scan [%q,%q) limit %d: %d results, want %d", start, end, limit, len(kvs), len(wantKeys))
		}
		for i, kv := range kvs {
			if string(kv.Key) != wantKeys[i] {
				t.Fatalf("result %d = %q, want %q", i, kv.Key, wantKeys[i])
			}
			if string(kv.Value) != model[wantKeys[i]] {
				t.Fatalf("key %q = %q, want %q (newest-wins across shards violated)", kv.Key, kv.Value, model[wantKeys[i]])
			}
			if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
				t.Fatalf("results not globally ordered at %d: %q >= %q", i, kvs[i-1].Key, kv.Key)
			}
		}
	}

	keysIn := func(start, end string, limit int) []string {
		var keys []string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("scan-%03d", i)
			if start != "" && k < start {
				continue
			}
			if end != "" && k >= end {
				continue
			}
			keys = append(keys, k)
		}
		if limit > 0 && len(keys) > limit {
			keys = keys[:limit]
		}
		return keys
	}

	check([]byte("scan-005"), []byte("scan-025"), 0, keysIn("scan-005", "scan-025", 0))
	check(nil, nil, 0, keysIn("", "", 0))
	check([]byte("scan-030"), nil, 0, keysIn("scan-030", "", 0))
	check(nil, []byte("scan-010"), 0, keysIn("", "scan-010", 0))
	check([]byte("scan-000"), []byte("scan-999"), 7, keysIn("scan-000", "scan-999", 7))

	// A range owned by no written keys is a verified empty result.
	kvs, _, err := cl.Scan([]byte("zz-"), []byte("zz~"), 0)
	if err != nil || len(kvs) != 0 {
		t.Fatalf("empty range: kvs=%v err=%v", kvs, err)
	}
}

// TestShardedScanConvictsByzantineShard runs the omission attack through
// the real cluster (verify-pool transport): the faulty shard's proof
// fails client-side verification, the signed response convicts that edge
// at the cloud, and sibling shards stay in good standing.
func TestShardedScanConvictsByzantineShard(t *testing.T) {
	const shards = 2
	// Find a key for shard 0 so the fault lands on edge-1's merged pages.
	victims := keysForShard(t, shards, 0, 8)
	c := newTestCluster(t, Config{
		Shards:      shards,
		BatchSize:   2,
		L0Threshold: 2,
		EdgeFaults:  map[NodeID]*Fault{EdgeID(1): {ScanOmitKey: victims[0]}},
	})
	cl, err := c.NewClient("c1", "")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range victims {
		if _, err := cl.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Spread a few keys on the honest shard too.
	for _, k := range keysForShard(t, shards, 1, 8) {
		if _, err := cl.Put(k, []byte("w")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	waitMerged(t, c, EdgeID(1), EdgeID(2))

	if _, _, err := cl.Scan(nil, nil, 0); err == nil {
		t.Fatal("scan over a byzantine shard succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if reason, banned := c.Punished(EdgeID(1)); banned {
			t.Logf("convicted: %s", reason)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("byzantine shard never convicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, banned := c.Punished(EdgeID(2)); banned {
		t.Fatal("honest sibling shard was punished")
	}
}
