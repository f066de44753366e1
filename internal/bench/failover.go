package bench

import (
	"fmt"
	"time"

	wedge "wedgechain"
)

// AvailabilityFailover (AV1) measures a 3-replica shard's write
// availability across leadership transitions, wall-clock over the
// façade's loopback TCP endpoints (safe to import here because the façade
// never imports bench). Arm one kills an honest leader
// mid-stream: the cloud's lease expires, a follower is promoted, and the
// closed-loop writer resumes after a bounded stall with zero failed
// operations. Arm two plants a stale-serving fault on the follower that
// will be promoted: after the same crash-driven transfer it hides part of
// the certified history, a gossip-contradicted read denial convicts it
// end to end, and a second transfer lands on the remaining honest
// replica — writes keep completing throughout.
func AvailabilityFailover(scale Scale) *Table {
	t := &Table{
		ID:     "AV1",
		Title:  "Availability: 3-replica shard across killed-leader transitions (wall-clock)",
		Header: []string{"Scenario", "Writes", "Failed", "Stall (ms)", "Before (ops/s)", "After (ops/s)", "Transfers", "Convicted"},
	}
	writes := scale.rounds(60)
	if writes < 12 {
		writes = 12
	}
	for _, stale := range []bool{false, true} {
		row, err := runFailoverArm(writes, stale)
		if err != nil {
			t.failRow(failoverScenario(stale), err)
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"closed-loop writer, Phase II (certified) completion per write; stall = longest gap between consecutive completions from the kill onward",
		"no write ever fails: in-flight operations are re-sent to the promoted replica on the cloud-signed transfer and deduplicated by (client, seq)",
		"arm 2: the promoted follower denies a certified, gossip-covered block; the omission dispute convicts it (second transfer), after which the hidden block reads back Phase II from the survivor",
	)
	return t
}

func failoverScenario(stale bool) string {
	if stale {
		return "stale-serving follower promoted"
	}
	return "honest leader killed"
}

func runFailoverArm(writes int, stale bool) ([]string, error) {
	cfg := wedge.Config{
		Edges:            1,
		ReplicasPerShard: 3,
		BatchSize:        4,
		FlushEvery:       5 * time.Millisecond,
		LeaseTimeout:     300 * time.Millisecond,
		GossipEvery:      100 * time.Millisecond,
	}
	if stale {
		cfg.EdgeFaults = map[wedge.NodeID]*wedge.Fault{
			wedge.FollowerID(1, 1): {PromoteStale: true, PromoteStaleFrom: 2},
		}
	}
	cluster, err := wedge.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	w, err := cluster.NewClient("av1-writer", "")
	if err != nil {
		return nil, err
	}
	reader, err := cluster.NewClient("av1-reader", "")
	if err != nil {
		return nil, err
	}

	var done []time.Time
	failed := 0
	write := func(i int) {
		rc, err := w.Add([]byte(fmt.Sprintf("av1-%d", i)))
		if err != nil {
			failed++
			return
		}
		if err := rc.WaitPhaseII(15 * time.Second); err != nil {
			failed++
			return
		}
		done = append(done, time.Now())
	}

	half := writes / 2
	start := time.Now()
	for i := 0; i < half; i++ {
		write(i)
	}
	killAt := time.Now()
	if err := cluster.KillEdge(wedge.EdgeID(1)); err != nil {
		return nil, err
	}
	for i := half; i < writes; i++ {
		write(i)
	}
	end := time.Now()

	before := float64(half) / killAt.Sub(start).Seconds()
	// The stall is the longest silence from the kill onward; the recovery
	// rate is measured from the completion that ends it.
	stall := time.Duration(0)
	afterStart := killAt
	prev := killAt
	remaining := 0
	for _, ts := range done {
		if ts.Before(killAt) {
			continue
		}
		if gap := ts.Sub(prev); gap > stall {
			stall = gap
			afterStart = ts
			remaining = 0
		}
		prev = ts
		remaining++
	}
	after := 0.0
	if d := end.Sub(afterStart).Seconds(); d > 0 {
		after = float64(remaining) / d
	}

	convicted := "-"
	if stale {
		// The promoted follower hides block 2 even though the cloud
		// certified and gossips it: the signed denial is a provable
		// omission.
		if _, _, rerr := reader.Read(2, 10*time.Second); rerr == nil {
			return nil, fmt.Errorf("stale follower served the block it was told to hide")
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			_, banned := cluster.Punished(wedge.FollowerID(1, 1))
			if banned && cluster.ChainLeader(wedge.EdgeID(1)) == wedge.FollowerID(1, 2) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, banned := cluster.Punished(wedge.FollowerID(1, 1)); !banned {
			return nil, fmt.Errorf("stale-serving follower was not convicted")
		}
		convicted = string(wedge.FollowerID(1, 1))
		time.Sleep(250 * time.Millisecond) // let the second transfer reach the clients
		for i := writes; i < writes+6; i++ {
			write(i)
		}
		writes += 6
		if _, phase, rerr := reader.Read(2, 10*time.Second); rerr != nil || phase != wedge.PhaseII {
			return nil, fmt.Errorf("hidden block did not recover on the surviving replica (phase=%v err=%v)", phase, rerr)
		}
	}

	return []string{
		failoverScenario(stale),
		fmt.Sprint(writes),
		fmt.Sprint(failed),
		f1(float64(stall.Nanoseconds()) / 1e6),
		f1(before),
		f1(after),
		fmt.Sprint(cluster.ChainEpoch(wedge.EdgeID(1))),
		convicted,
	}, nil
}
