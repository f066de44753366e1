package integration

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
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
// The schedule is a pure function of the seed, so a failure reproduces
// from the seed alone.

// chaosWrite pairs a write op with the payload it carried.
type chaosWrite struct {
	op      *client.Op
	payload []byte
}

// chaosRun drives rounds of paired writes (BatchSize 2 — one block per
// round) through the fault schedule seeded by seed, then verifies the
// two invariants. It returns the first failure.
func chaosRun(t *testing.T, seed int64, rounds int) error {
	t.Helper()
	fn := faultnet.New(seed)
	// Partitions always precede the background noise rule (Partition
	// prepends; first match wins). The first window cuts the initial
	// leader off the cloud mid-run (lease expiry, transfer, later
	// rejoin); the second cuts whoever "edge-1.r1" is by then — usually
	// the promoted leader, forcing a second transfer and a second rejoin.
	fn.Partition("edge-1", "cloud", 1*s, 2200*ms)
	if rounds > 12 {
		fn.Partition("edge-1.r1", "cloud", 6*s, 7*s)
	}
	fn.Add(faultnet.Rule{Faults: faultnet.LinkFaults{
		Drop:     0.05,
		Dup:      0.08,
		DelayMax: 20 * ms,
	}})

	var w *rworld
	blame := newBlame(func() *rworld { return w })
	w = newRWorld(t, rworldOpts{
		fault:      fn,
		retryEvery: 150 * ms,
		gossip:     200 * ms,
		tap:        blame.see,
	})

	// Warm the chain so block 0 certifies before the first partition.
	var writes []chaosWrite
	add := func(c *client.Core, payload string) {
		writes = append(writes, chaosWrite{op: w.add(c, payload), payload: []byte(payload)})
	}
	add(w.c1, "warm-0")
	add(w.c2, "warm-1")
	w.settle(t, 500*ms)

	for i := 0; i < rounds; i++ {
		add(w.c1, fmt.Sprintf("chaos-%d-a", i))
		add(w.c2, fmt.Sprintf("chaos-%d-b", i))
		w.settle(t, 400*ms)
	}

	// Lift the faults and drain: retries flush, the proof timeout settles
	// stragglers, rejoined nodes finish catch-up.
	fn.Clear()
	w.settle(t, 5*s)

	// The schedule must actually have bitten, or the run proves nothing.
	if st := fn.Snapshot(); st.Drops == 0 || st.Dups == 0 {
		return fmt.Errorf("fault schedule injected nothing: %v", st)
	}
	if got := w.cloud.Stats().Transfers; got == 0 {
		return errors.New("chaos never forced a leadership transfer")
	}
	if got := w.cloud.Stats().Rejoins; got == 0 {
		return errors.New("no node ever rejoined after the partitions")
	}

	// Invariant 2: no honest conviction — the group is all honest nodes.
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "edge-1.r2"} {
		if _, banned := w.cloud.Flagged(id); banned {
			return fmt.Errorf("honest node %s convicted under chaos: %s", id, blame.of(blame.verdicts[id]))
		}
	}
	for i, rec := range writes {
		if v := rec.op.Verdict; v != nil && v.Guilty {
			return fmt.Errorf("write %d drew a guilty verdict against %s under chaos: %s", i, v.Edge, blame.of(*v))
		}
	}

	// Invariant 1: every certified write reads back. Issue all the reads,
	// drain once, then check block contents.
	type check struct {
		rec  chaosWrite
		read *client.Op
	}
	var checks []check
	certified := 0
	for _, rec := range writes {
		if rec.op.Phase != core.PhaseII {
			continue // never certified from this client's view — see below
		}
		certified++
		checks = append(checks, check{rec: rec, read: w.read(w.c1, rec.op.BID)})
	}
	w.settle(t, 5*s)
	if certified == 0 {
		return errors.New("no write certified — chaos run exercised nothing")
	}
	for _, c := range checks {
		if c.read.Err != nil || c.read.Phase != core.PhaseII || c.read.Block == nil {
			return fmt.Errorf("certified write %q lost: read bid=%d phase=%v err=%v",
				c.rec.payload, c.rec.op.BID, c.read.Phase, c.read.Err)
		}
		found := false
		for _, e := range c.read.Block.Entries {
			if bytes.Equal(e.Value, c.rec.payload) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("certified write %q missing from its block %d", c.rec.payload, c.rec.op.BID)
		}
	}
	t.Logf("chaos seed=%d rounds=%d: %d/%d writes certified, %v, transfers=%d rejoins=%d",
		seed, rounds, certified, len(writes), fn.Snapshot(),
		w.cloud.Stats().Transfers, w.cloud.Stats().Rejoins)
	return nil
}

// blame records, from the frames the nodes send, what a conviction report
// names: the first guilty verdict against each node, and for each (node,
// block) the view under which the node first sent a frame about the
// block — an acknowledgement, a replicated copy or a certify request. For
// a block the node cut, that is the view it was cut under.
type blame struct {
	world    func() *rworld
	verdicts map[wire.NodeID]wire.Verdict
	cuts     map[nodeBlock]cutView
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

func newBlame(world func() *rworld) *blame {
	return &blame{world: world, verdicts: map[wire.NodeID]wire.Verdict{}, cuts: map[nodeBlock]cutView{}}
}

func (b *blame) see(env wire.Envelope) {
	var bid uint64
	switch m := env.Msg.(type) {
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
	w := b.world()
	for _, n := range []*edge.Node{w.leader, w.r1, w.r2} {
		if n.ID() == env.From {
			b.cuts[k] = cutView{epoch: n.Epoch(), cloudEpoch: w.cloud.ChainEpoch("edge-1"), cloudLeader: w.cloud.ChainLeader("edge-1")}
		}
	}
}

// of names v's block and the view its node sent it under, marking a view
// the cloud had already superseded.
func (b *blame) of(v wire.Verdict) string {
	c, ok := b.cuts[nodeBlock{v.Edge, v.BID}]
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
// ChaosSmoke ./internal/integration/`.
func TestChaosSmoke(t *testing.T) {
	if err := chaosRun(t, 42, 8); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak is the long arm: longer schedules, double partition
// windows, one subtest per seed. It runs only when asked:
// WEDGE_CHAOS_SOAK=1 (see `make chaos`) runs four fixed seeds, and
// WEDGE_CHAOS_SEEDS runs the seeds it names instead: one seed, or an
// inclusive range such as 1-300. The output ends with one line per
// failing seed and its first failure.
func TestChaosSoak(t *testing.T) {
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
			if err := chaosRun(t, seed, 40); err != nil {
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
