package bench

import (
	"testing"

	"wedgechain/internal/edge"
	"wedgechain/internal/wire"
)

func TestRTTMatrixMatchesTableI(t *testing.T) {
	// The C row is the paper's Table I verbatim.
	want := map[DC]float64{California: 0.5, Oregon: 19, Virginia: 61, Ireland: 141, Mumbai: 238}
	for dc, ms := range want {
		if got := float64(RTT(California, dc)) / 1e6; got != ms {
			t.Errorf("RTT(C,%s) = %v ms, want %v", dc, got, ms)
		}
		// Symmetry.
		if RTT(California, dc) != RTT(dc, California) {
			t.Errorf("RTT(C,%s) asymmetric", dc)
		}
	}
}

func TestTriangleSumInvariant(t *testing.T) {
	// Figure 7(b)'s explanation requires client->edge->cloud sums to be
	// similar for edges C,O,V,I with client=C, cloud=M.
	var sums []float64
	for _, edge := range []DC{California, Oregon, Virginia, Ireland} {
		sum := float64(RTT(California, edge)+RTT(edge, Mumbai)) / 1e6
		sums = append(sums, sum)
	}
	min, max := sums[0], sums[0]
	for _, s := range sums {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max/min > 1.25 {
		t.Fatalf("triangle sums diverge: %v", sums)
	}
}

func TestMeasuredRTTMatchesConfig(t *testing.T) {
	got := measureRTT(California, Virginia)
	if got < 60.9 || got > 61.5 {
		t.Fatalf("measured RTT C-V = %v ms, want ~61", got)
	}
}

func TestCostModelChargesBatchCommit(t *testing.T) {
	p := DefaultCosts(100)
	roles := map[wire.NodeID]Role{"edge-1": REdge, "cloud": RCloud, "c1": RClient}
	fn := p.Fn(roles, nil)

	write := wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutBatch{}}
	// A buffered write (no outputs) costs only the base.
	if got := fn("edge-1", write, nil); got != p.Base {
		t.Fatalf("buffered write cost = %d, want %d", got, p.Base)
	}
	// A write that cut a block (certify in outputs) pays commit cost.
	outs := []wire.Envelope{{From: "edge-1", To: "cloud", Msg: &wire.BlockCertify{}}}
	got := fn("edge-1", write, outs)
	want := p.Base + p.CutBaseEdge + p.CutPerOp*int64(p.Batch)
	if got != want {
		t.Fatalf("cut cost = %d, want %d", got, want)
	}
	// Certification at the cloud scales with batch size.
	cert := wire.Envelope{From: "edge-1", To: "cloud", Msg: &wire.BlockCertify{}}
	c100 := fn("cloud", cert, nil)
	p2 := DefaultCosts(1000)
	c1000 := p2.Fn(roles, nil)("cloud", cert, nil)
	if c1000 <= c100 {
		t.Fatalf("cert cost not increasing with batch: %d vs %d", c100, c1000)
	}
	// Clients pay verification on block responses.
	resp := wire.Envelope{From: "edge-1", To: "c1", Msg: &wire.PutResponse{}}
	if got := fn("c1", resp, nil); got != p.Base+p.VerifyBatch {
		t.Fatalf("client verify cost = %d", got)
	}
}

func TestBuildWorldSystems(t *testing.T) {
	for _, sys := range AllSystems {
		w := BuildWorld(WorldCfg{
			System:         sys,
			Clients:        2,
			Batch:          10,
			Place:          defaultPlace,
			WritesPerRound: 10,
			Rounds:         3,
		})
		w.Run(int64(600e9))
		m := w.AggMetrics()
		if m.Writes != 2*3*10 {
			t.Fatalf("%s: writes = %d", sys, m.Writes)
		}
		if w.Throughput() <= 0 {
			t.Fatalf("%s: no throughput", sys)
		}
		if m.MeanBurstLatency() <= 0 {
			t.Fatalf("%s: no latency", sys)
		}
	}
}

func TestWedgeLatencyBelowBaselines(t *testing.T) {
	// The paper's headline: WedgeChain commits at edge speed.
	lat := map[System]float64{}
	for _, sys := range AllSystems {
		w := writeWorld(sys, 1, 100, 5, defaultPlace)
		lat[sys] = w.AggMetrics().MeanBurstLatency()
	}
	if !(lat[Wedge] < lat[CloudOnly] && lat[CloudOnly] < lat[EdgeBase]) {
		t.Fatalf("latency ordering violated: %v", lat)
	}
}

func TestDataFreeSavesCoordinationBytes(t *testing.T) {
	small := BuildWorld(WorldCfg{
		System: Wedge, Clients: 1, Batch: 100, Place: defaultPlace,
		WritesPerRound: 100, Rounds: 5,
	})
	small.Run(int64(600e9))
	full := BuildWorld(WorldCfg{
		System: Wedge, Clients: 1, Batch: 100, Place: defaultPlace,
		WritesPerRound: 100, Rounds: 5, Edge: edge.Config{FullDataCert: true},
	})
	full.Run(int64(600e9))
	if small.EdgeCloudBytes() >= full.EdgeCloudBytes() {
		t.Fatalf("data-free (%d B) not smaller than full-data (%d B)",
			small.EdgeCloudBytes(), full.EdgeCloudBytes())
	}
}
