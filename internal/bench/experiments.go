package bench

import (
	"fmt"

	"wedgechain/internal/edge"
	"wedgechain/internal/sim"
	"wedgechain/internal/wire"
)

// Scale shrinks experiment volume for quick runs (tests, CI): 1 = paper
// scale, larger values divide round counts.
type Scale int

// Scales.
const (
	Full  Scale = 1
	Quick Scale = 10
)

func (s Scale) rounds(full int) int {
	r := full / int(s)
	if r < 3 {
		r = 3
	}
	return r
}

func (s Scale) preload(full int) int {
	p := full / int(s)
	if p < 1000 {
		p = 1000
	}
	return p
}

// defaultPlace is the evaluation's standard placement: clients and edge in
// California, cloud in Virginia.
var defaultPlace = Placement{Client: California, Edge: California, Cloud: Virginia}

// batchSweep is Figure 4's x axis.
var batchSweep = []int{100, 500, 1000, 1500, 2000}

// clientSweep is Figure 5's x axis.
var clientSweep = []int{1, 3, 5, 7, 9}

// Table1RTT reproduces Table I: measured RTTs between California and the
// other datacenters, via Ping/Pong over the simulated topology.
func Table1RTT(scale Scale) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "Average RTT from California (ms) — paper: C=0 O=19 V=61 I=141 M=238",
		Header: []string{"", "C", "O", "V", "I", "M"},
	}
	row := []string{"C"}
	for _, to := range AllDCs {
		row = append(row, f1(measureRTT(California, to)))
	}
	t.Rows = append(t.Rows, row)
	return t
}

// pinger is a minimal handler that answers pings.
type pinger struct{ id wire.NodeID }

func (p *pinger) ID() wire.NodeID { return p.id }
func (p *pinger) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if m, ok := env.Msg.(*wire.Ping); ok {
		return []wire.Envelope{{From: p.id, To: env.From, Msg: &wire.Pong{Seq: m.Seq, Ts: m.Ts}}}
	}
	return nil
}
func (p *pinger) Tick(now int64) []wire.Envelope { return nil }

// ponger records round trips.
type ponger struct {
	id wire.NodeID

	rtts []int64
}

func (p *ponger) ID() wire.NodeID { return p.id }
func (p *ponger) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if m, ok := env.Msg.(*wire.Pong); ok {
		p.rtts = append(p.rtts, now-m.Ts)
	}
	return nil
}
func (p *ponger) Tick(now int64) []wire.Envelope { return nil }

func measureRTT(a, b DC) float64 {
	src := &ponger{id: "src"}
	dst := &pinger{id: "dst"}
	s := sim.New(sim.Config{
		TickEvery: int64(1e6),
		Links: map[[2]wire.NodeID]sim.Link{
			{"src", "dst"}: linkFor(a, b, wanBW),
			{"dst", "src"}: linkFor(b, a, wanBW),
		},
	})
	s.Add(src)
	s.Add(dst)
	const probes = 5
	for i := 0; i < probes; i++ {
		s.Inject([]wire.Envelope{{From: "src", To: "dst", Msg: &wire.Ping{Seq: uint64(i), Ts: s.Now()}}})
		s.Drain(s.Now() + int64(5e9))
	}
	var sum int64
	for _, r := range src.rtts {
		sum += r
	}
	if len(src.rtts) == 0 {
		return -1
	}
	return float64(sum) / float64(len(src.rtts)) / 1e6
}

// writeWorld runs a pure write workload and returns the world.
func writeWorld(system System, clients, batch, rounds int, place Placement) *World {
	w := BuildWorld(WorldCfg{
		System:         system,
		Clients:        clients,
		Batch:          batch,
		Place:          place,
		WritesPerRound: batch,
		Rounds:         rounds,
		WarmupRounds:   2,
	})
	w.Run(int64(3600e9))
	return w
}

// Fig4aLatency reproduces Figure 4(a): put latency vs batch size,
// 1 client, edge=C, cloud=V.
func Fig4aLatency(scale Scale) *Table {
	t := &Table{
		ID:     "F4a",
		Title:  "Put latency (ms) vs batch size — paper: Wedge 15-20, Cloud-only 78-83, Edge-baseline 109-213",
		Header: []string{"Batch", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(30)
	for _, b := range batchSweep {
		row := []string{fmt.Sprint(b)}
		for _, sys := range AllSystems {
			w := writeWorld(sys, 1, b, rounds, defaultPlace)
			row = append(row, f1(w.AggMetrics().MeanBurstLatency()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4bThroughput reproduces Figure 4(b): put throughput vs batch size.
func Fig4bThroughput(scale Scale) *Table {
	t := &Table{
		ID:     "F4b",
		Title:  "Put throughput (ops/s) vs batch size — paper: Wedge 6.6K->100K (15x), Cloud-only 18.5x, Edge-baseline ~2x",
		Header: []string{"Batch", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(30)
	for _, b := range batchSweep {
		row := []string{fmt.Sprint(b)}
		for _, sys := range AllSystems {
			w := writeWorld(sys, 1, b, rounds, defaultPlace)
			row = append(row, kops(w.Throughput()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// mixWorld runs a mixed workload with preloaded data.
func mixWorld(system System, clients, writes, reads, rounds, preload int) *World {
	w := BuildWorld(WorldCfg{
		System:         system,
		Clients:        clients,
		Batch:          100,
		Place:          defaultPlace,
		WritesPerRound: writes,
		ReadsPerRound:  reads,
		Rounds:         rounds,
		WarmupRounds:   1,
		Preload:        preload,
	})
	w.Preload()
	w.Run(int64(3600e9 * 4))
	return w
}

// Fig5aWrites reproduces Figure 5(a): all-write throughput vs clients.
func Fig5aWrites(scale Scale) *Table {
	t := &Table{
		ID:     "F5a",
		Title:  "All-write throughput (ops/s) vs clients, B=100 — paper: Wedge +22-30%, Cloud-only +433% (to within 7% of Wedge)",
		Header: []string{"Clients", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(40)
	for _, n := range clientSweep {
		row := []string{fmt.Sprint(n)}
		for _, sys := range AllSystems {
			w := writeWorld(sys, n, 100, rounds, defaultPlace)
			row = append(row, kops(w.Throughput()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5bMixed reproduces Figure 5(b): 50% reads / 50% writes; writes
// buffered, reads interactive.
func Fig5bMixed(scale Scale) *Table {
	t := &Table{
		ID:     "F5b",
		Title:  "Mixed 50/50 throughput (ops/s) vs clients — paper at 9 clients: Wedge 4K, Edge-baseline 1.3K, Cloud-only 270",
		Header: []string{"Clients", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(10)
	preload := scale.preload(100_000)
	for _, n := range clientSweep {
		row := []string{fmt.Sprint(n)}
		for _, sys := range AllSystems {
			w := mixWorld(sys, n, 100, 100, rounds, preload)
			row = append(row, kops(w.Throughput()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5cReads reproduces Figure 5(c): all-read throughput vs clients.
func Fig5cReads(scale Scale) *Table {
	t := &Table{
		ID:     "F5c",
		Title:  "All-read throughput (ops/s) vs clients — paper: Wedge ~ Edge-baseline >> Cloud-only",
		Header: []string{"Clients", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(6)
	preload := scale.preload(100_000)
	for _, n := range clientSweep {
		row := []string{fmt.Sprint(n)}
		for _, sys := range AllSystems {
			w := mixWorld(sys, n, 0, 100, rounds, preload)
			row = append(row, kops(w.Throughput()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6Phases reproduces Figure 6: cumulative Phase I vs Phase II commits
// over time for batch sizes 100, 500, 1000 (4000 batches at full scale).
func Fig6Phases(scale Scale) *Table {
	t := &Table{
		ID:     "F6",
		Title:  "Phase I vs Phase II commit progress — paper: P1 finishes ~60s for all B; P2 lags at B>=500",
		Header: []string{"Batch", "Batches", "P1 done (s)", "P2 done (s)", "P2/P1 lag"},
	}
	batches := 4000 / int(scale)
	if batches < 200 {
		batches = 200
	}
	for _, b := range []int{100, 500, 1000} {
		p1, p2 := runPhases(b, batches)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(b), fmt.Sprint(batches),
			f1(float64(p1) / 1e9), f1(float64(p2) / 1e9),
			fmt.Sprintf("%.2fx", float64(p2)/float64(p1)),
		})
	}
	t.Notes = append(t.Notes,
		"P1/P2 done = virtual time at which the last batch reached that phase")
	return t
}

// runPhases runs one Figure 6 series and returns the virtual times at
// which the final batch reached Phase I and Phase II.
func runPhases(batch, batches int) (p1done, p2done int64) {
	w := BuildWorld(WorldCfg{
		System:         Wedge,
		Clients:        1,
		Batch:          batch,
		Place:          defaultPlace,
		WritesPerRound: batch,
		Rounds:         batches,
		WarmupRounds:   0,
	})
	var p1, p2 int
	cc := w.WedgeClients[0]
	cc.OnPhaseI = func(op *clientOp) {
		p1++
		if p1 == batches*batch {
			p1done = op.PhaseIAt
		}
	}
	cc.OnPhaseII = func(op *clientOp) {
		p2++
		if p2 == batches*batch {
			p2done = op.PhaseIIAt
		}
	}
	w.Run(int64(3600e9 * 8))
	// Let outstanding Phase II certifications finish.
	w.Sim.RunWhile(func() bool { return p2 < batches*batch }, w.Sim.Now()+int64(3600e9*8))
	return p1done, p2done
}

// Fig7aCloudLoc reproduces Figure 7(a): put latency while varying the
// cloud's datacenter, client and edge fixed in California.
func Fig7aCloudLoc(scale Scale) *Table {
	t := &Table{
		ID:     "F7a",
		Title:  "Put latency (ms) vs cloud DC (client+edge=C) — paper: Wedge 15-17 flat, Cloud-only 37-247, Edge-baseline 59-321",
		Header: []string{"Cloud DC", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(20)
	for _, dc := range []DC{Oregon, Virginia, Ireland, Mumbai} {
		place := Placement{Client: California, Edge: California, Cloud: dc}
		row := []string{dc.String()}
		for _, sys := range AllSystems {
			w := writeWorld(sys, 1, 100, rounds, place)
			row = append(row, f1(w.AggMetrics().MeanBurstLatency()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7bEdgeLoc reproduces Figure 7(b): put latency while varying the
// edge's datacenter, client in California, cloud in Mumbai.
func Fig7bEdgeLoc(scale Scale) *Table {
	t := &Table{
		ID:     "F7b",
		Title:  "Put latency (ms) vs edge DC (client=C, cloud=M) — paper: Wedge 17-247 tracks edge RTT, Cloud-only flat, Edge-baseline similar except edge=M",
		Header: []string{"Edge DC", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(20)
	for _, dc := range AllDCs {
		place := Placement{Client: California, Edge: dc, Cloud: Mumbai}
		row := []string{dc.String()}
		for _, sys := range AllSystems {
			w := writeWorld(sys, 1, 100, rounds, place)
			row = append(row, f1(w.AggMetrics().MeanBurstLatency()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SecVIEDataset reproduces Section VI-E: write latency vs dataset size.
// The paper sweeps 100K..100M keys and sees no significant effect; 100M
// in-memory keys exceed this host, so we sweep 100K..10M (DESIGN.md §3).
func SecVIEDataset(scale Scale) *Table {
	t := &Table{
		ID:     "DS1",
		Title:  "Put latency (ms) vs key-space size — paper: Wedge 15-16, Edge-baseline 88-95, Cloud-only 78-79 (flat)",
		Header: []string{"Keys", "WedgeChain", "Cloud-only", "Edge-baseline"},
	}
	rounds := scale.rounds(20)
	sizes := []int{100_000, 1_000_000, 10_000_000}
	if scale != Full {
		sizes = []int{100_000, 1_000_000}
	}
	for _, n := range sizes {
		row := []string{fmt.Sprint(n)}
		for _, sys := range AllSystems {
			w := BuildWorld(WorldCfg{
				System:         sys,
				Clients:        1,
				Batch:          100,
				KeySpace:       n,
				Place:          defaultPlace,
				WritesPerRound: 100,
				Rounds:         rounds,
				WarmupRounds:   2,
			})
			w.Run(int64(3600e9))
			row = append(row, f1(w.AggMetrics().MeanBurstLatency()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "write-path cost is independent of dataset size by construction; see EXPERIMENTS.md")
	return t
}

// AblationDataFree (A1) quantifies data-free certification: edge-cloud
// bytes and Phase II completion with digests only vs full block bodies.
func AblationDataFree(scale Scale) *Table {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: data-free vs full-data certification (B=1000)",
		Header: []string{"Mode", "Edge->cloud bytes/batch", "P2 done (s)", "Mean put latency (ms)"},
	}
	batches := scale.rounds(200)
	for _, full := range []bool{false, true} {
		w := BuildWorld(WorldCfg{
			System:         Wedge,
			Clients:        1,
			Batch:          1000,
			Place:          defaultPlace,
			WritesPerRound: 1000,
			Rounds:         batches,
			WarmupRounds:   0,
			Edge:           edge.Config{FullDataCert: full},
		})
		var p2 int
		var p2done int64
		cc := w.WedgeClients[0]
		total := batches * 1000
		cc.OnPhaseII = func(op *clientOp) {
			p2++
			if p2 == total {
				p2done = op.PhaseIIAt
			}
		}
		w.Run(int64(3600e9 * 4))
		w.Sim.RunWhile(func() bool { return p2 < total }, w.Sim.Now()+int64(3600e9*4))
		mode := "data-free (digests)"
		if full {
			mode = "full-data (blocks)"
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprint(w.EdgeCloudBytes() / uint64(batches)),
			f1(float64(p2done) / 1e9),
			f1(w.AggMetrics().MeanBurstLatency()),
		})
	}
	return t
}

// AblationGossip (A2) sweeps the gossip period against omission-attack
// detection latency and gossip overhead.
func AblationGossip(scale Scale) *Table {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: gossip period vs omission detection",
		Header: []string{"Gossip period (ms)", "Detection latency (ms)", "Gossip msgs"},
	}
	for _, period := range []int64{50e6, 200e6, 1000e6} {
		det, msgs := runOmission(period)
		t.Rows = append(t.Rows, []string{
			f1(float64(period) / 1e6),
			f1(float64(det) / 1e6),
			fmt.Sprint(msgs),
		})
	}
	t.Notes = append(t.Notes, "detection latency = read denial to guilty verdict at the victim")
	return t
}

// AblationBaselineIndex (A3) compares the Edge-baseline's index
// maintenance policy: paper-style mLSM thresholds vs eager per-batch
// compaction approximating vanilla Merkle tree maintenance.
func AblationBaselineIndex(scale Scale) *Table {
	t := &Table{
		ID:     "A3",
		Title:  "Ablation: Edge-baseline index policy (paper: index choice had no significant effect)",
		Header: []string{"Index policy", "Mean put latency (ms)", "Cloud->edge bytes/batch"},
	}
	rounds := scale.rounds(30)
	for _, eager := range []bool{false, true} {
		cfg := WorldCfg{
			System:         EdgeBase,
			Clients:        1,
			Batch:          100,
			Place:          defaultPlace,
			WritesPerRound: 100,
			Rounds:         rounds,
			WarmupRounds:   2,
		}
		if eager {
			cfg.Edge.L0Threshold = 1
		}
		w := BuildWorld(cfg)
		w.Run(int64(3600e9))
		name := "mLSM (thresholds 10/10/100/1000)"
		if eager {
			name = "eager rebuild (vanilla-Merkle-like)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			f1(w.AggMetrics().MeanBurstLatency()),
			fmt.Sprint(w.EdgeCloudBytes() / uint64(rounds+2)),
		})
	}
	return t
}

// AblationFreshness (A4) sweeps the client freshness window against a
// frozen (stale-snapshot) edge.
func AblationFreshness(scale Scale) *Table {
	t := &Table{
		ID:     "A4",
		Title:  "Ablation: freshness window vs stale-snapshot edge",
		Header: []string{"Window (ms)", "Stale gets rejected", "Gets accepted"},
	}
	for _, window := range []int64{100e6, 500e6, 2000e6} {
		rejected, accepted := runFreshness(window)
		t.Rows = append(t.Rows, []string{
			f1(float64(window) / 1e6),
			fmt.Sprint(rejected),
			fmt.Sprint(accepted),
		})
	}
	t.Notes = append(t.Notes, "frozen edge serves a validly signed snapshot ~1s old; tighter windows reject it")
	return t
}

// Experiments is the registry mapping experiment ids to runners.
var Experiments = []struct {
	ID  string
	Fn  func(Scale) *Table
	Doc string
}{
	{"T1", Table1RTT, "Table I: datacenter RTT matrix"},
	{"F4a", Fig4aLatency, "Figure 4(a): put latency vs batch size"},
	{"F4b", Fig4bThroughput, "Figure 4(b): put throughput vs batch size"},
	{"F5a", Fig5aWrites, "Figure 5(a): all-write throughput vs clients"},
	{"F5b", Fig5bMixed, "Figure 5(b): mixed 50/50 throughput vs clients"},
	{"F5c", Fig5cReads, "Figure 5(c): all-read throughput vs clients"},
	{"F5d", Fig5dReadPath, "Figure 5(d): best-case read latency and verification overhead (measured)"},
	{"F6", Fig6Phases, "Figure 6: Phase I vs Phase II commit rates"},
	{"F7a", Fig7aCloudLoc, "Figure 7(a): latency vs cloud location"},
	{"F7b", Fig7bEdgeLoc, "Figure 7(b): latency vs edge location"},
	{"DS1", SecVIEDataset, "Section VI-E: dataset size sweep"},
	{"E1", EvidencePruning, "Read evidence by key: bytes/read and throughput vs L0 window, band and random keys"},
	{"S1", ShardScaling, "Shard scaling: put throughput vs edge count"},
	{"R1", ReadScanBench, "Verified range scans: latency/row throughput vs range width vs shard count"},
	{"A1", AblationDataFree, "Ablation: data-free certification"},
	{"A2", AblationGossip, "Ablation: gossip period vs omission detection"},
	{"A3", AblationBaselineIndex, "Ablation: Edge-baseline index policy"},
	{"A4", AblationFreshness, "Ablation: freshness window"},
}

// Lookup finds an experiment by id.
func Lookup(id string) (func(Scale) *Table, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Fn, true
		}
	}
	return nil, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	return out
}
