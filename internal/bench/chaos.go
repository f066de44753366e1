package bench

import (
	"fmt"
	"time"

	wedge "wedgechain"
)

// ChaosSoak (CH1) runs a 3-replica shard under the deterministic chaos
// network — wall-clock over the façade's loopback TCP endpoints — and
// measures what the healing machinery costs and guarantees. Arm one is
// the clean baseline. Arm two adds seeded background faults (drop,
// duplicate, delay) on every link: client transport retries and the
// leader's stall-gated certification retries absorb them. Arm three
// additionally partitions the leader from the cloud mid-run: the lease
// expires, a follower is promoted, the clients rebind, and — once the
// partition heals — the demoted ex-leader truncates its abandoned tail,
// catches up through certified blocks, and converges back to the live
// frontier. Every arm asserts the two soak invariants: no
// acked-then-certified write is lost (each one reads back Phase II at
// the end) and no honest node is convicted.
func ChaosSoak(scale Scale) *Table {
	t := &Table{
		ID:     "CH1",
		Title:  "Chaos soak: 3-replica shard under seeded drop/dup/delay + partition (wall-clock)",
		Header: []string{"Scenario", "Writes", "Lost", "Unavail", "ops/s", "Epoch", "Drops", "Dups", "Resends", "CatchUps", "Convicted"},
	}
	writes := scale.rounds(60)
	if writes < 12 {
		writes = 12
	}
	for _, arm := range []chaosArm{chaosClean, chaosNoise, chaosPartition} {
		row, err := runChaosArm(writes, arm)
		if err != nil {
			t.failRow(arm.String(), err)
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"seed 42; background faults: 3% drop, 5% duplicate, <=10ms delay on every link; partition arm cuts leader<->cloud mid-run and heals it",
		"closed-loop writer; Unavail counts typed unavailable failures surfaced by bounded retry (re-issued by the app, never silent hangs)",
		"Lost = acked-then-certified writes that failed to read back Phase II after the run (invariant: 0); Convicted must stay '-' (all nodes honest)",
		"partition arm waits for the demoted ex-leader to truncate, certified-catch-up, and converge to the live frontier before the final audit",
	)
	return t
}

type chaosArm int

const (
	chaosClean chaosArm = iota
	chaosNoise
	chaosPartition
)

func (a chaosArm) String() string {
	switch a {
	case chaosClean:
		return "clean baseline"
	case chaosNoise:
		return "drop+dup+delay"
	default:
		return "noise + leader partition"
	}
}

func runChaosArm(writes int, arm chaosArm) ([]string, error) {
	var net *wedge.ChaosNet
	if arm != chaosClean {
		net = noiseNet()
	}
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:            1,
		ReplicasPerShard: 3,
		BatchSize:        4,
		FlushEvery:       5 * time.Millisecond,
		LeaseTimeout:     300 * time.Millisecond,
		GossipEvery:      100 * time.Millisecond,
		RetryEvery:       100 * time.Millisecond,
		MaxAttempts:      8,
		Chaos:            net,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	w, err := cluster.NewClient("ch1-writer", "")
	if err != nil {
		return nil, err
	}

	leaderID, cloudID := wedge.EdgeID(1), wedge.NodeID("cloud")
	type acked struct {
		payload string
		bid     uint64
	}
	var certified []acked
	unavailable := 0
	write := func(i int) error {
		payload := fmt.Sprintf("ch1-%d", i)
		// Bounded retry surfaces typed unavailable errors instead of
		// hanging; the closed loop re-issues like an application would.
		for attempt := 0; ; attempt++ {
			rc, err := w.Add([]byte(payload))
			if err == nil {
				err = rc.WaitPhaseII(20 * time.Second)
			}
			if err == nil {
				certified = append(certified, acked{payload, rc.BID()})
				return nil
			}
			unavailable++
			if attempt == 4 {
				return fmt.Errorf("write %d exhausted app-level retries: %w", i, err)
			}
		}
	}

	start := time.Now()
	third := writes / 3
	for i := 0; i < third; i++ {
		if err := write(i); err != nil {
			return nil, err
		}
	}
	if arm == chaosPartition {
		net.Partition(leaderID, cloudID, 0, 0)
	}
	for i := third; i < 2*third; i++ {
		if err := write(i); err != nil {
			return nil, err
		}
	}
	if arm == chaosPartition {
		net.Heal(leaderID)
	}
	for i := 2 * third; i < writes; i++ {
		if err := write(i); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	if arm == chaosPartition {
		// The healed ex-leader must rejoin and converge: truncate the
		// uncertified tail it acked into the void, refetch certified
		// history, and mirror the live frontier.
		if cluster.ChainEpoch(leaderID) == 0 {
			return nil, fmt.Errorf("partition never forced a leadership transfer")
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			lb, lc, err := cluster.ReplicaFrontier(cluster.ChainLeader(leaderID))
			if err != nil {
				return nil, err
			}
			xb, xc, err := cluster.ReplicaFrontier(leaderID)
			if err != nil {
				return nil, err
			}
			if cluster.ChainLeader(leaderID) != leaderID && xb == lb && xc == lc && lb > 0 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("ex-leader never converged: has %d/%d, leader %d/%d", xb, xc, lb, lc)
			}
			time.Sleep(20 * time.Millisecond)
		}
		st, err := cluster.EdgeStats(leaderID)
		if err != nil {
			return nil, err
		}
		if st.CatchUps == 0 {
			return nil, fmt.Errorf("ex-leader rejoined without certified catch-up")
		}
	}

	// Invariant 1: nothing acked-then-certified is lost. The audit reads
	// through the writer's session, which has followed every transfer.
	lost := 0
	for _, a := range certified {
		blk, phase, err := w.Read(a.bid, 20*time.Second)
		ok := err == nil && phase == wedge.PhaseII && blk != nil
		if ok {
			found := false
			for _, e := range blk.Entries {
				if string(e.Value) == a.payload {
					found = true
				}
			}
			ok = found
		}
		if !ok {
			lost++
		}
	}
	if lost > 0 {
		return nil, fmt.Errorf("%d certified writes lost", lost)
	}
	// Invariant 2: no honest node convicted.
	for _, id := range []wedge.NodeID{leaderID, wedge.FollowerID(1, 1), wedge.FollowerID(1, 2)} {
		if why, banned := cluster.Punished(id); banned {
			return nil, fmt.Errorf("honest node %s convicted: %s", id, why)
		}
	}

	var drops, dups uint64
	if net != nil {
		snap := net.Snapshot()
		drops, dups = snap.Drops, snap.Dups
		if arm != chaosClean && drops == 0 {
			return nil, fmt.Errorf("chaos schedule injected nothing")
		}
	}
	var resends, catchups uint64
	for _, id := range []wedge.NodeID{leaderID, wedge.FollowerID(1, 1), wedge.FollowerID(1, 2)} {
		if st, err := cluster.EdgeStats(id); err == nil {
			catchups += st.CatchUps
		}
	}
	if byEdge, err := w.Stats(); err == nil {
		for _, cs := range byEdge {
			resends += cs.Resends
		}
	}

	return []string{
		arm.String(),
		fmt.Sprint(len(certified)),
		"0",
		fmt.Sprint(unavailable),
		f1(float64(len(certified)) / elapsed.Seconds()),
		fmt.Sprint(cluster.ChainEpoch(leaderID)),
		fmt.Sprint(drops),
		fmt.Sprint(dups),
		fmt.Sprint(resends),
		fmt.Sprint(catchups),
		"-",
	}, nil
}
