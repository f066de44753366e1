package bench

import (
	"fmt"
	"time"

	wedge "wedgechain"
	"wedgechain/internal/obs"
)

// Observability (OB1) reports the headline SLO the telemetry produces: a
// façade cluster runs wall-clock and the wedge_trust_lag_seconds histogram
// is read off Cluster.Metrics() — the client-observed Phase I → Phase II
// lag, clean versus under seeded chaos noise (CH1's 3% drop / 5% dup /
// ≤10ms delay mix, seed 42). Lazy trust's pitch is that faults move the
// trust lag, not the ack latency — this is the experiment that shows the
// lag moving.
func Observability(scale Scale) *Table {
	t := &Table{
		ID:      "OB1",
		Title:   "Observability: the trust-lag SLO, clean vs chaos noise",
		Header:  []string{"Arm", "Writes", "trust-lag p50 (ms)", "trust-lag p99 (ms)"},
		Metrics: map[string]float64{},
	}
	writes := scale.rounds(60)
	if writes < 12 {
		writes = 12
	}
	for _, noisy := range []bool{false, true} {
		arm := "cluster trust lag, clean"
		key := "clean"
		if noisy {
			arm = "cluster trust lag, chaos noise"
			key = "noise"
		}
		p50, p99, n, err := runTrustLagArm(writes, noisy)
		if err != nil {
			t.failRow(arm, err)
			continue
		}
		t.Rows = append(t.Rows, []string{arm, fmt.Sprint(writes), f2(p50 * 1e3), f2(p99 * 1e3)})
		t.Metrics["trust_lag_p50_ms_"+key] = p50 * 1e3
		t.Metrics["trust_lag_p99_ms_"+key] = p99 * 1e3
		t.Metrics["trust_lag_samples_"+key] = n
	}
	t.Notes = append(t.Notes,
		"reads the wedge_trust_lag_seconds histogram off Cluster.Metrics() (edge and client stages merged) on CH1's 3-replica shard; noise arm injects 3% drop / 5% dup / <=10ms delay on every link (seed 42)",
	)
	return t
}

// obsCount sums a histogram family's sample count across children.
func obsCount(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Samples() {
		if s.Name == name+"_count" {
			total += s.Value
		}
	}
	return total
}

// noiseNet is the background fault mix CH1 and OB1 share, seed 42: 3%
// drop, 5% duplicate, <=10ms delay on every link.
func noiseNet() *wedge.ChaosNet {
	net := wedge.NewChaos(42)
	net.Add(wedge.ChaosRule{Faults: wedge.LinkFaults{
		Drop:     0.03,
		Dup:      0.05,
		DelayMax: (10 * time.Millisecond).Nanoseconds(),
	}})
	return net
}

// trustLag drives writes closed-loop through one client of the cluster,
// each to Phase II, and reads the wedge_trust_lag_seconds quantiles off
// the cluster's registry.
func trustLag(cluster *wedge.Cluster, tag string, writes int) (p50, p99 float64, err error) {
	c, err := cluster.NewClient(tag+"-writer", "")
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < writes; i++ {
		rc, err := c.Add([]byte(fmt.Sprintf("%s-%d", tag, i)))
		if err == nil {
			err = rc.WaitPhaseII(20 * time.Second)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("write %d: %w", i, err)
		}
	}
	reg := cluster.Metrics()
	return reg.Quantile("wedge_trust_lag_seconds", 0.50), reg.Quantile("wedge_trust_lag_seconds", 0.99), nil
}

// runTrustLagArm measures trust lag on CH1's shard shape, clean or under
// chaos noise, and reports how many samples the histogram holds.
func runTrustLagArm(writes int, noisy bool) (p50, p99, samples float64, err error) {
	var net *wedge.ChaosNet
	if noisy {
		net = noiseNet()
	}
	// ReplicasPerShard: 3 matches CH1's shard shape and — load-bearing
	// under chaos — makes the edge "grouped", which turns on its default
	// 1s certification re-submit: without it a single dropped certify
	// frame stalls Phase II forever on a drop-prone link.
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:            1,
		ReplicasPerShard: 3,
		BatchSize:        4,
		FlushEvery:       5 * time.Millisecond,
		GossipEvery:      100 * time.Millisecond,
		RetryEvery:       100 * time.Millisecond,
		MaxAttempts:      8,
		Chaos:            net,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cluster.Close()
	if p50, p99, err = trustLag(cluster, "ob1", writes); err != nil {
		return 0, 0, 0, err
	}
	if samples = obsCount(cluster.Metrics(), "wedge_trust_lag_seconds"); samples == 0 {
		return 0, 0, 0, fmt.Errorf("no trust-lag samples recorded")
	}
	return p50, p99, samples, nil
}
