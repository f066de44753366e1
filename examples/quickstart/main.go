// Quickstart: bring up a WedgeChain cluster in one process, log entries with
// Phase I / Phase II commitment, write and read key-value pairs with
// verified proofs.
package main

import (
	"fmt"
	"log"
	"time"

	"wedgechain"
)

func main() {
	// One untrusted edge node, one trusted cloud node, small blocks so
	// everything commits quickly. A 30ms WAN delay on every frame to and
	// from the cloud — Phase I never pays it, Phase II always does.
	wan := wedgechain.NewChaos(1)
	delay := wedgechain.LinkFaults{DelayMin: int64(30 * time.Millisecond), DelayMax: int64(30 * time.Millisecond)}
	wan.Add(wedgechain.ChaosRule{From: wedgechain.CloudID, Faults: delay})
	wan.Add(wedgechain.ChaosRule{To: wedgechain.CloudID, Faults: delay})
	cluster, err := wedgechain.NewCluster(wedgechain.Config{
		Edges:      1,
		BatchSize:  2,
		FlushEvery: 25 * time.Millisecond,
		Chaos:      wan,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := cluster.NewClient("sensor-1", wedgechain.EdgeID(1))
	if err != nil {
		log.Fatal(err)
	}

	// --- Logging interface: add() / read().
	start := time.Now()
	receipt, err := client.Add([]byte("temperature=21.7C ts=1718100000"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Phase I  commit in %v (block %d) — committed at the edge, cloud not involved\n",
		time.Since(start).Round(time.Millisecond), receipt.BID())

	if err := receipt.WaitPhaseII(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Phase II commit in %v — cloud certified the block digest (data-free)\n",
		time.Since(start).Round(time.Millisecond))

	blk, phase, err := client.Read(receipt.BID(), 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read(block %d): %d entries, %s\n", receipt.BID(), len(blk.Entries), phase)

	// --- Key-value interface: put() / get() through LSMerkle.
	if _, err := client.Put([]byte("door/42"), []byte("locked")); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Put([]byte("door/42"), []byte("open")); err != nil {
		log.Fatal(err)
	}
	val, found, phase, err := client.Get([]byte("door/42"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get(door/42) = %q (found=%v, %s) — value verified against certified blocks\n",
		val, found, phase)

	_, found, _, err = client.Get([]byte("door/99"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get(door/99) found=%v — a *verified* absence, not a trusted one\n", found)
}
