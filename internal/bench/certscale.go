package bench

import (
	"fmt"
	"runtime"
	"time"

	wedge "wedgechain"
	"wedgechain/internal/cloud"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// CertScale (CL1) measures the cloud's certification hot paths at scale
// — the PR-10 tentpole. Two wall-clock arms:
//
//  1. Aggregate certification throughput across concurrent chains,
//     per-block (pre-PR) vs batched: the per-block arm pays one Ed25519
//     verify per certify and one sign per proof; the batched arm ships
//     wire.BlockCertifyBatch runs in and signs one wire.BlockCertBatch
//     per run out, cutting the signature work per certified block by
//     ~the batch factor. The acceptance bar is >= 2x at 4 chains.
//
//  2. Full-stack trust lag through the façade with batched certificates,
//     against the per-block baseline, asserting the chaos-suite
//     invariants: zero lost certified writes, zero honest convictions.
func CertScale(scale Scale) *Table {
	t := &Table{
		ID: "CL1",
		Title: fmt.Sprintf("Cloud certification at scale: per-block vs batched (batch=%d, %d CPUs)",
			certScaleBatch, runtime.GOMAXPROCS(0)),
		Header:  []string{"Arm", "Work", "Wall (ms)", "Kops/s", "Speedup", "Notes"},
		Metrics: map[string]float64{},
	}

	total := 24_000 / int(scale)
	if total < 4_000 {
		total = 4_000
	}
	total -= total % (4 * certScaleBatch) // divisible by chains x batch

	// Arm 1: certification throughput, 1 and 4 chains.
	var speedup4 float64
	for _, chains := range []int{1, 4} {
		base := runCertThroughputArm(chains, total, 1)
		batched := runCertThroughputArm(chains, total, certScaleBatch)
		sp := batched / base
		if chains == 4 {
			speedup4 = sp
		}
		t.Rows = append(t.Rows,
			[]string{fmt.Sprintf("certify %d-chain per-block", chains), fmt.Sprint(total),
				f1(float64(total) / base * 1e3), f1(base / 1e3), "1.00x", "1 verify + 1 sign per block"},
			[]string{fmt.Sprintf("certify %d-chain batched", chains), fmt.Sprint(total),
				f1(float64(total) / batched * 1e3), f1(batched / 1e3), fmt.Sprintf("%.2fx", sp),
				fmt.Sprintf("1 verify + 1 sign per %d blocks", certScaleBatch)},
		)
	}
	t.Metrics["cert_speedup_4chain"] = speedup4

	// Arm 2: full-stack trust lag, per-block vs batched.
	writes := 120 / int(scale)
	if writes < 30 {
		writes = 30
	}
	for _, batched := range []bool{false, true} {
		label := "facade trust lag, per-block"
		if batched {
			label = "facade trust lag, batched"
		}
		p50, p99, err := runCertScaleCluster(writes, batched)
		if err != nil {
			t.failRow(label, err)
			continue
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprint(writes), "-", "-", "-",
			fmt.Sprintf("trust-lag p50 %s ms, p99 %s ms", f2(p50*1e3), f2(p99*1e3))})
		if batched {
			t.Metrics["trust_lag_p99_batched_ms"] = p99 * 1e3
		}
	}

	t.Notes = append(t.Notes,
		"arm 1 drives raw cloud.Node state machines wall-clock: unverified envelopes (inline Ed25519) pumped round-robin across chains, each answered on its own Receive; Kops/s = certified blocks per second",
		fmt.Sprintf("arm 1 per-block arm = pre-PR wire shape (BlockCertify/BlockProof); batched arm = BlockCertifyBatch in, one signed BlockCertBatch per %d blocks out", certScaleBatch),
		"arm 2 runs the façade with CertBatch=8 vs defaults: every write reaches Phase II, zero verdicts (checked, run fails otherwise)",
	)
	return t
}

const certScaleBatch = 16

// certWorld is the shared identity set for the raw cloud arms.
type certWorld struct {
	reg   *wcrypto.Registry
	cloud wcrypto.KeyPair
	edges []wcrypto.KeyPair
}

func newCertWorld(chains int) *certWorld {
	w := &certWorld{reg: wcrypto.NewRegistry(), cloud: wcrypto.DeterministicKey("cloud")}
	w.reg.Register("cloud", w.cloud.Pub)
	for i := 0; i < chains; i++ {
		k := wcrypto.DeterministicKey(wire.NodeID(fmt.Sprintf("edge-%d", i+1)))
		w.edges = append(w.edges, k)
		w.reg.Register(k.ID, k.Pub)
	}
	return w
}

// runCertThroughputArm certifies total blocks spread evenly over chains
// and returns certified blocks per second. batch == 1 pre-builds the
// per-block wire shape; batch > 1 pre-builds BlockCertifyBatch runs.
// Envelopes are delivered unverified, so the cloud pays the inline
// signature check — the cost the batch amortizes.
func runCertThroughputArm(chains, total, batch int) float64 {
	w := newCertWorld(chains)
	per := total / chains
	envs := make([][]wire.Envelope, chains)
	for c := 0; c < chains; c++ {
		ek := w.edges[c]
		for bid := 0; bid < per; bid += batch {
			if batch == 1 {
				m := &wire.BlockCertify{Edge: ek.ID, BID: uint64(bid), Digest: wcrypto.Digest([]byte{byte(c), byte(bid), byte(bid >> 8)})}
				m.EdgeSig = wcrypto.SignMsg(ek, m)
				envs[c] = append(envs[c], wire.Envelope{From: ek.ID, To: "cloud", Msg: m})
			} else {
				m := &wire.BlockCertifyBatch{Edge: ek.ID, Start: uint64(bid)}
				for i := 0; i < batch; i++ {
					m.Digests = append(m.Digests, wcrypto.Digest([]byte{byte(c), byte(bid + i), byte((bid + i) >> 8)}))
				}
				m.EdgeSig = wcrypto.SignMsg(ek, m)
				envs[c] = append(envs[c], wire.Envelope{From: ek.ID, To: "cloud", Msg: m})
			}
		}
	}
	cn := cloud.New(cloud.Config{ID: "cloud", CertBatch: batch}, w.cloud, w.reg)

	start := time.Now()
	for i := 0; i < len(envs[0]); i++ {
		for c := 0; c < chains; c++ {
			now := time.Now().UnixNano()
			cn.Receive(now, envs[c][i])
		}
	}
	cn.Tick(time.Now().UnixNano()) // flush trailing partial runs
	elapsed := time.Since(start)
	if got := cn.Stats().Certifies; got != uint64(total) {
		panic(fmt.Sprintf("CL1: certified %d/%d", got, total))
	}
	return float64(total) / elapsed.Seconds()
}

// runCertScaleCluster drives writes through the façade and returns trust
// lag percentiles, failing on any lost write or verdict.
func runCertScaleCluster(writes int, batched bool) (p50, p99 float64, err error) {
	cfg := wedge.Config{
		Edges:      1,
		BatchSize:  4,
		FlushEvery: 5 * time.Millisecond,
	}
	if batched {
		cfg.CertBatch = 8
	}
	cluster, err := wedge.NewCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()
	if p50, p99, err = trustLag(cluster, "cl1", writes); err != nil {
		return 0, 0, err
	}
	if vs := cluster.Verdicts(); len(vs) != 0 {
		return 0, 0, fmt.Errorf("honest cluster produced %d verdicts", len(vs))
	}
	if batched && obsCount(cluster.Metrics(), "wedge_cert_batch_entries") == 0 {
		return 0, 0, fmt.Errorf("no certificate batches signed")
	}
	return p50, p99, nil
}
