package wedgechain

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// sampleValue sums one series family across children from the cluster
// registry snapshot.
func sampleValue(c *Cluster, name string) float64 {
	total := 0.0
	for _, s := range c.Metrics().Samples() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// TestClusterBatchedCertification runs the full stack with batched
// certificates both directions and the verdict cache default, and checks
// that Phase II completes for every write, reads round-trip, certificate
// batches actually flowed, and nobody honest was convicted.
func TestClusterBatchedCertification(t *testing.T) {
	c := newTestCluster(t, Config{
		Edges:      1,
		BatchSize:  2,
		CertBatch:  4,
		FlushEvery: 5 * time.Millisecond,
	})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 24
	receipts := make([]*Receipt, 0, writes)
	for i := 0; i < writes; i++ {
		r, err := cl.Add([]byte(fmt.Sprintf("entry-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, r)
	}
	for i, r := range receipts {
		if err := r.WaitPhaseII(15 * time.Second); err != nil {
			t.Fatalf("write %d WaitPhaseII: %v", i, err)
		}
	}
	blk, phase, err := cl.Read(receipts[0].BID(), 10*time.Second)
	if err != nil {
		t.Fatalf("read of batch-certified block: %v", err)
	}
	if phase != PhaseII {
		t.Fatalf("read phase = %v, want PhaseII (batch must upgrade the read)", phase)
	}
	if !bytes.Equal(blk.Entries[0].Value, []byte("entry-0")) {
		t.Fatalf("read value = %q", blk.Entries[0].Value)
	}
	if got := sampleValue(c, "wedge_cert_batch_entries_count"); got == 0 {
		t.Fatal("no certificate batches were signed")
	}
	if vs := c.Verdicts(); len(vs) != 0 {
		t.Fatalf("honest cluster produced verdicts: %v", vs)
	}
}
