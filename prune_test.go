package wedgechain

import (
	"fmt"
	"testing"
	"time"
)

// waitPunished polls until the cloud has convicted the edge.
func waitPunished(t *testing.T, c *Cluster, id NodeID) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if reason, banned := c.Punished(id); banned {
			return reason
		}
		if time.Now().After(deadline) {
			t.Fatal("edge never convicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFacadePrunedReadsHonest drives pruned reads through the real
// cluster (verify-pool transport): a deep uncompacted L0 window, point
// gets and scans all verify and return correct results.
func TestFacadePrunedReadsHonest(t *testing.T) {
	// L0Threshold 1000 keeps every block uncompacted: all evidence is the
	// L0 window, served pruned.
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2, L0Threshold: 1000})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := cl.Put([]byte(fmt.Sprintf("pk-%03d", i)), []byte(fmt.Sprintf("pv-%03d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for _, i := range []int{0, 7, 15} {
		v, found, _, err := cl.Get([]byte(fmt.Sprintf("pk-%03d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("pv-%03d", i) {
			t.Fatalf("get %d: v=%q found=%v err=%v", i, v, found, err)
		}
	}
	if _, found, _, err := cl.Get([]byte("pk-none")); err != nil || found {
		t.Fatalf("absent key over pruned window: found=%v err=%v", found, err)
	}
	kvs, _, err := cl.Scan([]byte("pk-004"), []byte("pk-008"), 0)
	if err != nil || len(kvs) != 4 {
		t.Fatalf("scan over pruned window: %d kvs, err=%v", len(kvs), err)
	}
}

// TestFacadeFalseExclusionConvicts: omission-via-pruning in the real
// cluster. The edge hides the victim key's block behind its honest
// summary; the get fails verification and the signed response convicts
// the edge at the cloud.
func TestFacadeFalseExclusionConvicts(t *testing.T) {
	victim := []byte("pk-victim")
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 2, L0Threshold: 1000,
		EdgeFaults: map[NodeID]*Fault{EdgeID(1): {SliceFalseExclude: victim}},
	})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(victim, []byte("precious")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := cl.Put([]byte("pk-other"), []byte("w")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, _, _, err := cl.Get(victim); err == nil {
		t.Fatal("get over a falsely excluded block succeeded")
	}
	t.Logf("convicted: %s", waitPunished(t, c, EdgeID(1)))
}

// TestFacadeTamperedSummaryConvicts: the tampered-summary twin through
// the scan path of the real cluster.
func TestFacadeTamperedSummaryConvicts(t *testing.T) {
	victim := []byte("pk-victim")
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 2, L0Threshold: 1000,
		EdgeFaults: map[NodeID]*Fault{EdgeID(1): {SliceTamperKey: victim}},
	})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(victim, []byte("precious")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := cl.Put([]byte("pk-other"), []byte("w")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, _, err := cl.Scan([]byte("pk-"), []byte("pk-~"), 0); err == nil {
		t.Fatal("scan over a tampered summary succeeded")
	}
	t.Logf("convicted: %s", waitPunished(t, c, EdgeID(1)))
}
