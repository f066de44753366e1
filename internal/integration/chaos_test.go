package integration

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// Chaos soak: the replicated cluster runs under a seeded fault schedule —
// background drop/duplicate/delay on every link plus scheduled partitions
// that force leadership transfers and rejoins — while clients keep
// writing. Two invariants must hold at the end, with the faults cleared
// and the dust settled:
//
//  1. No acked-then-certified write is lost: every operation the client
//     saw reach Phase II reads back as a certified block containing its
//     payload.
//  2. No honest node is convicted: drops, delays, duplicates and
//     partitions are indistinguishable from a slow network, and the
//     dispute machinery must never turn slowness into a guilty verdict.
//
// Then the group must have converged: every member holds the leader's
// log.
// The scenario runs on the simulator, where the schedule is a pure
// function of the seed, so a failure reproduces from the seed alone, and
// on loopback TCP, where the seed fixes the fault mix but wall-clock
// scheduling decides which frames it hits.

// chaosWrite pairs a write op with the client that sent it and the
// payload it carried.
type chaosWrite struct {
	c       *client.Core
	op      *client.Op
	payload []byte
}

// write sends payload through c as a turn of c.
func (w *rworld) write(c *client.Core, payload string) chaosWrite {
	rec := chaosWrite{c: c, payload: []byte(payload)}
	w.host.do(c.ID(), func(now int64) []wire.Envelope {
		op, envs := c.Add(now, rec.payload)
		rec.op = op
		return envs
	})
	return rec
}

// writeRounds sends rounds of paired writes, one from each client (BatchSize
// 2 — one block per round), each round followed by a 400 ms settle.
func (w *rworld) writeRounds(t *testing.T, rounds int) []chaosWrite {
	var writes []chaosWrite
	for i := 0; i < rounds; i++ {
		writes = append(writes, w.write(w.c1, fmt.Sprintf("chaos-%d-a", i)), w.write(w.c2, fmt.Sprintf("chaos-%d-b", i)))
		w.settle(t, 400*ms)
	}
	return writes
}

// trustLag returns the p50 and p99 trust lag (Phase I ack to Phase II
// certificate, in ms) of the writes that reached Phase II, and how many did.
func (w *rworld) trustLag(writes []chaosWrite) (p50, p99 float64, n int) {
	var lags []float64
	for _, rec := range writes {
		w.on(rec.c.ID(), func() {
			if rec.op.Phase == core.PhaseII {
				lags = append(lags, float64(rec.op.PhaseIIAt-rec.op.PhaseIAt)/float64(ms))
			}
		})
	}
	if len(lags) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lags)
	rank := func(q float64) float64 { return lags[int(math.Ceil(q*float64(len(lags))))-1] }
	return rank(0.50), rank(0.99), len(lags)
}

// chaosRun drives rounds of paired writes through the fault schedule
// seeded by seed, on the simulator or on loopback TCP, then verifies the
// two invariants and that the group converged. It returns the first
// failure. The scenario reaches node state only through the host, and
// dates its partitions from the host's start.
func chaosRun(t *testing.T, tcp bool, seed int64, rounds int) error {
	t.Helper()
	fn := faultnet.New(seed)
	blame := newBlame()
	w := newRWorld(t, rworldOpts{
		fault:  fn,
		tcp:    tcp,
		gossip: 200 * ms,
		tap:    blame.see,
	})
	// Partitions always precede the background noise rule (Partition
	// prepends; first match wins). The first window cuts the initial
	// leader off the cloud mid-run (lease expiry, transfer, later
	// rejoin); the second cuts whoever "edge-1.r1" is by then — usually
	// the promoted leader, forcing a second transfer and a second rejoin.
	t0 := w.host.start()
	fn.Partition("edge-1", "cloud", t0+1*s, t0+2200*ms)
	if rounds > 12 {
		fn.Partition("edge-1.r1", "cloud", t0+6*s, t0+7*s)
	}
	fn.Add(faultnet.Rule{Faults: faultnet.LinkFaults{
		Drop:     0.05,
		Dup:      0.08,
		DelayMax: 20 * ms,
	}})

	// Warm the chain so block 0 certifies before the first partition.
	writes := []chaosWrite{w.write(w.c1, "warm-0"), w.write(w.c2, "warm-1")}
	w.settle(t, 500*ms)
	writes = append(writes, w.writeRounds(t, rounds)...)

	// Lift the faults and drain: retries flush, the proof timeout settles
	// stragglers, rejoined nodes finish catch-up.
	fn.Clear()
	w.settle(t, 5*s)

	// The schedule must actually have bitten, or the run proves nothing.
	if st := fn.Snapshot(); st.Drops == 0 || st.Dups == 0 {
		return fmt.Errorf("fault schedule injected nothing: %v", st)
	}
	var cst cloud.Stats
	var convicted wire.NodeID // the first member the cloud banned
	w.on(deploy.CloudID, func() {
		cst = w.cloud.Stats()
		for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
			if _, banned := w.cloud.Flagged(id); banned && convicted == "" {
				convicted = id
			}
		}
	})
	if cst.Transfers == 0 {
		return errors.New("chaos never forced a leadership transfer")
	}
	if cst.Rejoins == 0 {
		return errors.New("no node ever rejoined after the partitions")
	}

	// Invariant 2: no honest conviction — the group is all honest nodes.
	if convicted != "" {
		return fmt.Errorf("honest node %s convicted under chaos: %s", convicted, blame.of(blame.verdict(convicted)))
	}
	for i, rec := range writes {
		var v *wire.Verdict
		w.on(rec.c.ID(), func() { v = rec.op.Verdict })
		if v != nil && v.Guilty {
			return fmt.Errorf("write %d drew a guilty verdict against %s under chaos: %s", i, v.Edge, blame.of(*v))
		}
	}

	// Invariant 1: every certified write reads back. Issue all the reads,
	// drain once, then check block contents.
	type check struct {
		rec  chaosWrite
		bid  uint64
		read *client.Op
	}
	var checks []check
	for _, rec := range writes {
		var phase core.Phase
		var bid uint64
		w.on(rec.c.ID(), func() { phase, bid = rec.op.Phase, rec.op.BID })
		if phase != core.PhaseII {
			continue // never certified from this client's view — see below
		}
		c := check{rec: rec, bid: bid}
		w.host.do(w.c1.ID(), func(now int64) []wire.Envelope {
			op, envs := w.c1.Read(now, bid)
			c.read = op
			return envs
		})
		checks = append(checks, c)
	}
	w.settle(t, 5*s)
	if len(checks) == 0 {
		return errors.New("no write certified — chaos run exercised nothing")
	}
	for _, c := range checks {
		var err error
		var phase core.Phase
		var block, found bool
		w.on(w.c1.ID(), func() {
			err, phase, block = c.read.Err, c.read.Phase, c.read.Block != nil
			if block {
				found = slices.ContainsFunc(c.read.Block.Entries, func(e wire.Entry) bool { return bytes.Equal(e.Value, c.rec.payload) })
			}
		})
		if err != nil || phase != core.PhaseII || !block {
			return fmt.Errorf("certified write %q lost: read bid=%d phase=%v err=%v", c.rec.payload, c.bid, phase, err)
		}
		if !found {
			return fmt.Errorf("certified write %q missing from its block %d", c.rec.payload, c.bid)
		}
	}

	// Convergence: after the drain every member holds the leader's log
	// and its certified prefix, and a leader the partitions demoted
	// rebuilt it through certified catch-up.
	var leader wire.NodeID
	w.on(deploy.CloudID, func() { leader = w.cloud.ChainLeader("edge-1") })
	blocks, certified, catchUps := map[wire.NodeID]uint64{}, map[wire.NodeID]uint64{}, map[wire.NodeID]uint64{}
	for _, n := range []*edge.Node{w.leader, w.r1, w.r2} {
		w.on(n.ID(), func() {
			blocks[n.ID()], certified[n.ID()], catchUps[n.ID()] = n.LogBlocks(), n.CertifiedBlocks(), n.Stats().CatchUps
		})
	}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
		if blocks[id] != blocks[leader] || certified[id] != certified[leader] {
			return fmt.Errorf("%s did not converge: holds %d blocks, %d certified; leader %s holds %d, %d",
				id, blocks[id], certified[id], leader, blocks[leader], certified[leader])
		}
	}
	if leader != "edge-1" && catchUps["edge-1"] == 0 {
		return errors.New("demoted leader edge-1 rejoined without certified catch-up")
	}
	p50, p99, _ := w.trustLag(writes)
	t.Logf("chaos seed=%d rounds=%d: %d/%d writes certified, trust lag p50 %.1f ms p99 %.1f ms, %v, transfers=%d rejoins=%d",
		seed, rounds, len(checks), len(writes), p50, p99, fn.Snapshot(), cst.Transfers, cst.Rejoins)
	return nil
}

// blame records, from the frames the nodes send, what a conviction report
// names: the first guilty verdict against each node, and for each (node,
// block) the view under which the node first sent a frame about the
// block — an acknowledgement, a replicated copy or a certify request. For
// a block the node cut, that is the view it was cut under. The cloud's
// view is the newest one its LeadershipTransfer frames carried, so blame
// reads no node's state outside that node's turn; mu guards it against
// the TCP host's concurrent turns.
type blame struct {
	mu       sync.Mutex
	verdicts map[wire.NodeID]wire.Verdict
	cuts     map[nodeBlock]cutView
	// epoch and leader are the cloud's view of chain edge-1.
	epoch  uint64
	leader wire.NodeID
}

type nodeBlock struct {
	node wire.NodeID
	bid  uint64
}

// cutView is a node's epoch when it first sent a frame about a block, and
// the cloud's view (epoch and leader) at that moment.
type cutView struct {
	epoch, cloudEpoch uint64
	cloudLeader       wire.NodeID
}

func newBlame() *blame {
	return &blame{verdicts: map[wire.NodeID]wire.Verdict{}, cuts: map[nodeBlock]cutView{}, leader: "edge-1"}
}

func (b *blame) see(h core.Handler, env wire.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var bid uint64
	switch m := env.Msg.(type) {
	case *wire.LeadershipTransfer:
		if m.Chain == "edge-1" && m.Epoch > b.epoch {
			b.epoch, b.leader = m.Epoch, m.NewLeader
		}
		return
	case *wire.Verdict:
		if _, seen := b.verdicts[m.Edge]; m.Guilty && !seen {
			b.verdicts[m.Edge] = *m
		}
		return
	case *wire.PutResponse:
		bid = m.BID
	case *wire.ReplicateBlock:
		bid = m.Block.ID
	case *wire.BlockCertify:
		bid = m.BID
	default:
		return
	}
	k := nodeBlock{env.From, bid}
	if _, seen := b.cuts[k]; seen {
		return
	}
	if n, ok := h.(*edge.Node); ok && n.ID() == env.From {
		b.cuts[k] = cutView{epoch: n.Epoch(), cloudEpoch: b.epoch, cloudLeader: b.leader}
	}
}

// verdict returns the first guilty verdict seen against id.
func (b *blame) verdict(id wire.NodeID) wire.Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verdicts[id]
}

// of names v's block and the view its node sent it under, marking a view
// the cloud had already superseded.
func (b *blame) of(v wire.Verdict) string {
	b.mu.Lock()
	c, ok := b.cuts[nodeBlock{v.Edge, v.BID}]
	b.mu.Unlock()
	if !ok {
		return fmt.Sprintf("block %d (%s), never sent by %s", v.BID, v.Reason, v.Edge)
	}
	superseded := ""
	if c.epoch < c.cloudEpoch || c.cloudLeader != v.Edge {
		superseded = ", superseded"
	}
	return fmt.Sprintf("block %d (%s), first sent by %s at epoch %d while the cloud named %s at epoch %d%s",
		v.BID, v.Reason, v.Edge, c.epoch, c.cloudLeader, c.cloudEpoch, superseded)
}

// TestChaosSmoke is the CI arm: one fixed seed, a short schedule, both
// invariants. Deterministic — a failure reproduces with `go test -run
// 'ChaosSmoke$' ./internal/integration/`.
func TestChaosSmoke(t *testing.T) {
	if err := chaosRun(t, false, 42, 8); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSmokeTCP runs the smoke's seed and schedule on loopback TCP,
// where wall-clock scheduling means the seed fixes the fault mix but not
// which frames it hits; the invariants must hold all the same. A clean
// arm first logs the trust lag a fault-free group shows on real sockets.
func TestChaosSmokeTCP(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		w := newRWorld(t, rworldOpts{tcp: true, gossip: 200 * ms})
		writes := w.writeRounds(t, 8)
		w.settle(t, 2*s)
		p50, p99, n := w.trustLag(writes)
		if n != len(writes) {
			t.Fatalf("%d of %d writes certified", n, len(writes))
		}
		t.Logf("clean trust lag over %d writes: p50 %.2f ms, p99 %.2f ms", n, p50, p99)
	})
	if err := chaosRun(t, true, 42, 8); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak is the long arm: longer schedules, double partition
// windows, one subtest per seed. It runs only when asked:
// WEDGE_CHAOS_SOAK=1 (see `make chaos`) runs four fixed seeds, and
// WEDGE_CHAOS_SEEDS runs the seeds it names instead: one seed, or an
// inclusive range such as 1-300. The output ends with one line per
// failing seed and its first failure.
func TestChaosSoak(t *testing.T) { chaosSoak(t, false) }

// TestChaosSoakTCP runs the same soak on loopback TCP, about 27 s of wall
// time per seed (see `make chaos-tcp`).
func TestChaosSoakTCP(t *testing.T) { chaosSoak(t, true) }

func chaosSoak(t *testing.T, tcp bool) {
	spec := os.Getenv("WEDGE_CHAOS_SEEDS")
	if spec == "" && os.Getenv("WEDGE_CHAOS_SOAK") == "" {
		t.Skip("set WEDGE_CHAOS_SOAK=1 (or run `make chaos`) or WEDGE_CHAOS_SEEDS=1-300 for the long soak")
	}
	seeds := []int64{1, 7, 42, 1337}
	if spec != "" {
		var err error
		if seeds, err = parseSeeds(spec); err != nil {
			t.Fatal(err)
		}
	}
	var failures []string
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			if err := chaosRun(t, tcp, seed, 40); err != nil {
				failures = append(failures, fmt.Sprintf("seed %d: %v", seed, err))
				t.Fatal(err)
			}
		})
	}
	if len(failures) > 0 {
		t.Logf("%d of %d seeds failed:\n%s", len(failures), len(seeds), strings.Join(failures, "\n"))
	}
}

// parseSeeds reads WEDGE_CHAOS_SEEDS: a seed, or an inclusive range lo-hi.
func parseSeeds(spec string) ([]int64, error) {
	lo, hi, isRange := strings.Cut(spec, "-")
	first, err := strconv.ParseInt(lo, 10, 64)
	last := first
	if err == nil && isRange {
		last, err = strconv.ParseInt(hi, 10, 64)
	}
	if err != nil || last < first {
		return nil, fmt.Errorf("WEDGE_CHAOS_SEEDS=%q: want a seed or a range lo-hi", spec)
	}
	var seeds []int64
	for seed := first; seed <= last; seed++ {
		seeds = append(seeds, seed)
	}
	return seeds, nil
}
