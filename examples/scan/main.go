// Verified range scans: an untrusted edge must prove not only that every
// returned row is authentic but that *no certified row was omitted*. This
// example stands up a 4-shard cluster, loads a time-series keyspace,
// scans a key range with a completeness proof verified client-side (the
// scatter-gather spans every shard), and then shows the guarantee's
// teeth: an edge that omits a row mid-range fails verification and is
// convicted by the cloud.
//
// The conviction is reported as a cloud-signed dispute verdict: the
// failed scan's error names the defect, and the verdict carries the
// accused edge, the disputed block, and the judge's reason (printed
// below via Cluster.VerdictsFor). The wedge-client binary surfaces the
// same ruling on the command line — a disputed operation prints a line
// like
//
//	EDGE CONVICTED (scan dispute, block 3): scan proof page contradicts certified digest
//
// before exiting, so detection is visible in scripted deployments too.
package main

import (
	"fmt"
	"log"
	"time"

	"wedgechain"
)

func main() {
	demoVerifiedScan()
	demoOmissionConviction()
}

// demoVerifiedScan: one Scan call returns a globally ordered, verified
// slice of the keyspace, merged newest-wins across all four shards.
func demoVerifiedScan() {
	fmt.Println("== Verified range scan across 4 shards ==")
	cluster, err := wedgechain.NewCluster(wedgechain.Config{Shards: 4, BatchSize: 2, L0Threshold: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	c, err := cluster.NewClient("dashboard", "")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("sensor/%02d", i)
		if _, err := c.Put([]byte(key), []byte(fmt.Sprintf("21.%dC", i%10))); err != nil {
			log.Fatal(err)
		}
	}
	// Overwrite one reading so newest-wins is visible.
	if _, err := c.Put([]byte("sensor/07"), []byte("re-calibrated")); err != nil {
		log.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let certification and compaction settle

	kvs, phase, err := c.Scan([]byte("sensor/05"), []byte("sensor/12"), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scan [sensor/05, sensor/12): %d rows, phase=%s\n", len(kvs), phase)
	for _, kv := range kvs {
		fmt.Printf("    %s = %s\n", kv.Key, kv.Value)
	}
	fmt.Println("  every row verified; completeness proven by per-shard Merkle range proofs")
	fmt.Println()
}

// demoOmissionConviction: a byzantine edge drops one row from a scan. The
// tampered page no longer hashes to its certified Merkle leaf, the client
// rejects the scan, and the edge's own signed response convicts it.
func demoOmissionConviction() {
	fmt.Println("== Omission attack: detected and punished ==")
	evil := wedgechain.EdgeID(1)
	cluster, err := wedgechain.NewCluster(wedgechain.Config{
		Shards:      1,
		BatchSize:   2,
		L0Threshold: 2,
		EdgeFaults: map[wedgechain.NodeID]*wedgechain.Fault{
			evil: {ScanOmitKey: []byte("ledger/03")},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	c, err := cluster.NewClient("ledger-reader", "")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Put([]byte(fmt.Sprintf("ledger/%02d", i)), []byte(fmt.Sprintf("tx-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)

	_, _, err = c.Scan([]byte("ledger/00"), []byte("ledger/08"), 0)
	fmt.Printf("  scan over the byzantine edge: %v\n", err)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reason, banned := cluster.Punished(evil); banned {
			fmt.Printf("  cloud verdict: GUILTY — %s\n", reason)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("edge was not convicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The full signed verdict (what wedge-client prints as "EDGE
	// CONVICTED (scan dispute, block N): reason").
	for _, v := range cluster.VerdictsFor(evil) {
		fmt.Printf("  verdict record: edge=%s block=%d guilty=%v reason=%q\n", v.Edge, v.BID, v.Guilty, v.Reason)
	}
	fmt.Println("  the omitted row could not be hidden: the signed proof convicted the edge")
}
