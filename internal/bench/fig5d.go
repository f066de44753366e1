package bench

import (
	"fmt"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// Fig5dReadPath reproduces Figure 5(d): the best-case read latency
// measured directly at the serving node, and the client-side verification
// overhead. Unlike the other experiments this one measures real wall-clock
// time on this host — the figure is about CPU cost (hashing, signatures,
// proof checking), not WAN structure, so it must not be simulated.
//
// Paper: WedgeChain/Edge-baseline 0.71 ms total of which 0.19 ms is client
// verification; Cloud-only 0.5 ms with no verification.
func Fig5dReadPath(scale Scale) *Table {
	t := &Table{
		ID:     "F5d",
		Title:  "Best-case read path (wall-clock, this host) — paper: Wedge/EB 0.71ms total, 0.19ms verify; Cloud-only 0.50ms",
		Header: []string{"System", "Serve (ms)", "Verify (ms)", "Total (ms)"},
	}
	iters := 2000 / int(scale)
	if iters < 100 {
		iters = 100
	}

	// --- WedgeChain / Edge-baseline path: proof assembly + verification.
	// Build real edge state: preloaded keys, certified blocks, merged
	// levels — over a zero-latency local world.
	w := BuildWorld(WorldCfg{
		System:         Wedge,
		Clients:        1,
		Batch:          100,
		Preload:        5000,
		Place:          Placement{Client: California, Edge: California, Cloud: California},
		Rounds:         3,
		WritesPerRound: 100,
	})
	w.Preload()

	cc := w.WedgeClients[0]
	edgeNode := w.EdgeNode
	keys := make([][]byte, iters)
	for i := range keys {
		keys[i] = workload.KeyName(i % 5000)
	}

	var serveDur, verifyDur time.Duration
	now := w.Sim.Now()
	for i, key := range keys {
		start := time.Now()
		lo, hi := wire.PointRange(key)
		resp, err := edgeNode.AssembleScan(lo, hi, uint64(i))
		if err != nil {
			panic(fmt.Sprintf("bench: F5d get not served: %v", err))
		}
		serveDur += time.Since(start)

		start = time.Now()
		if err := cc.VerifyScanResponse(now, lo, hi, resp); err != nil {
			panic(fmt.Sprintf("bench: F5d verification failed: %v", err))
		}
		verifyDur += time.Since(start)
	}
	serveMS := float64(serveDur.Nanoseconds()) / float64(iters) / 1e6
	verifyMS := float64(verifyDur.Nanoseconds()) / float64(iters) / 1e6
	t.Rows = append(t.Rows, []string{
		"WedgeChain / Edge-baseline", f2(serveMS), f2(verifyMS), f2(serveMS + verifyMS),
	})

	// --- Cloud-only path: trusted map lookup, no proofs.
	co := buildCloudOnlyLocal(5000)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, ok := co.GetLocal(workload.KeyName(i % 5000)); !ok {
			panic("bench: F5d cloud-only key missing")
		}
	}
	coMS := float64(time.Since(start).Nanoseconds()) / float64(iters) / 1e6
	t.Rows = append(t.Rows, []string{"Cloud-only", f2(coMS), "0.00", f2(coMS)})

	t.Notes = append(t.Notes,
		"measured with real SHA-256/Ed25519 on this host; absolute values depend on the CPU, the ordering matches the paper")
	return t
}

// clientOp aliases the protocol client's operation type for callbacks.
type clientOp = client.Op
