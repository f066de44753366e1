package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"wedgechain/internal/edge"
	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// evidenceWindows is the E1 x axis: uncompacted L0 blocks at serve time.
var evidenceWindows = []int{1, 16, 64}

// EvidencePruning (E1) prices sliced read evidence: point gets and range
// scans served under controlled uncompacted L0 windows of 1/16/64 blocks,
// where each window block ships as a slice — the rows the request asked
// for, two flanks and a Merkle range proof. (The whole-window and
// summary-pruned shapes it replaced are recorded in ROADMAP's performance
// baseline.)
//
// Two window layouts per size. In "band" each window block writes its own
// 100-key band, so a request touches at most one block — the layout the
// interval summaries were tuned on. In "random" each block writes 100 keys
// drawn from the whole keyspace, which is what the macro benchmark's
// workloads do: every block's key interval covers every request, and only
// evidence by key keeps the response small.
//
// Three read shapes per window:
//
//   - get hit: the key's freshest version is in a window block — its
//     slice carries the row, every other slice a bracketing pair;
//   - get miss: the key resolves in the merged levels — every slice is a
//     bracketing pair;
//   - scan 100: a 100-key range; the slices carry whatever rows the
//     window holds in it (none in band, about one per two blocks in
//     random), the levels the compacted rest.
//
// Every sampled response is fully verified client-side (signature,
// window binding, bracketing, level proofs), so the byte counts are for
// real, accepted evidence. Throughput drives a closed-loop
// 90%-miss/10%-hit get mix through the simulator.
func EvidencePruning(scale Scale) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Read evidence by key: bytes/read and get throughput vs uncompacted L0 window (B=100, 1 shard)",
		Header: []string{"L0 window", "Keys", "Get hit (B)", "Get miss (B)",
			"Scan 100 (B)", "Gets/s (90% miss)"},
	}
	for _, random := range []bool{false, true} {
		layout := "band"
		if random {
			layout = "random"
		}
		for _, window := range evidenceWindows {
			r := runEvidence(scale, window, random)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(window),
				layout,
				fmt.Sprint(r.getHitBytes),
				fmt.Sprint(r.getMissBytes),
				fmt.Sprint(r.scanBytes),
				f1(r.getsPerSec),
			})
		}
	}
	t.Notes = append(t.Notes,
		"window blocks certified but uncompacted; band: block j writes keys [100j, 100j+100); random: every block writes 100 keys drawn from the whole keyspace",
		"every sampled response verified end-to-end before being counted",
	)
	return t
}

type evidenceResult struct {
	getHitBytes  int
	getMissBytes int
	scanBytes    int
	getsPerSec   float64
}

// runEvidence builds one world with a compacted preload plus a controlled
// uncompacted window of `window` blocks — one key band per block, or keys
// drawn at random from the compacted keyspace — then measures evidence
// sizes and closed-loop get throughput.
func runEvidence(scale Scale, window int, random bool) evidenceResult {
	const batch = 100
	const l0Threshold = 10
	// The window overwrites bands [0, window*batch). The preload's own
	// tail can leave up to l0Threshold blocks (1000 keys) uncompacted —
	// they ride along as extra window positions — so misses and scans must
	// address the compacted middle: above the window bands, below the
	// possibly-uncompacted tail, with room for the scan range.
	preload := scale.preload(20_000)
	if min := window*batch + 2*l0Threshold*batch; preload < min {
		preload = min
	}
	w := BuildWorld(WorldCfg{
		System:   Wedge,
		Clients:  1,
		Batch:    batch,
		KeySpace: preload,
		Preload:  preload,
		Place:    defaultPlace,
		Rounds:   1,
		Edge:     edge.Config{FlushEvery: int64(10e6)},
	})
	w.Preload()

	// Freeze compaction, then grow the window: block j overwrites the
	// 100-key band [j*batch, (j+1)*batch), or 100 keys drawn from the
	// compacted keyspace [0, preload-l0Threshold*batch).
	w.EdgeNode.SetL0Threshold(1 << 30)
	session := w.WedgeSessions[0]
	val := make([]byte, 100)
	compacted := preload - l0Threshold*batch
	rng := rand.New(rand.NewSource(7))
	written := make(map[int]bool)
	hitIdx := window*batch/2 + 3
	for j := 0; j < window; j++ {
		keys := make([][]byte, batch)
		values := make([][]byte, batch)
		for i := 0; i < batch; i++ {
			k := j*batch + i
			if random {
				k = rng.Intn(compacted)
				if j == window/2 && i == 3 {
					hitIdx = k
				}
			}
			written[k] = true
			keys[i] = workload.KeyName(k)
			values[i] = val
		}
		ops, envs := session.PutBatch(w.Sim.Now(), keys, values)
		w.Sim.Inject(envs)
		ok := w.Sim.RunWhile(func() bool {
			for _, op := range ops {
				if !op.Done {
					return true
				}
			}
			return false
		}, w.Sim.Now()+int64(600e9))
		if !ok {
			panic("bench: E1 window write stalled")
		}
	}
	w.Sim.Drain(w.Sim.Now() + int64(10e9))
	if got := w.EdgeNode.Log().NumBlocks() - w.EdgeNode.L0From(); got < uint64(window) {
		panic(fmt.Sprintf("bench: E1 window is %d blocks, want >= %d", got, window))
	}

	cc := w.WedgeClients[0]
	now := w.Sim.Now()
	size := func(m wire.Message) int {
		return wire.EncodedSize(wire.Envelope{From: w.EdgeNode.ID(), To: cc.ID(), Msg: m})
	}

	// Keys: the hit is a key the window wrote; the miss a compacted key it
	// did not; the scan range sits in the compacted middle, clear of the
	// preload's uncompacted tail (and, in band, of the window's bands).
	mid := (window*batch + compacted) / 2
	for written[mid] {
		mid++
	}
	hitKey := workload.KeyName(hitIdx)
	missKey := workload.KeyName(mid)
	scanLo := mid + 200

	res := evidenceResult{}
	hit, err := w.EdgeNode.AssembleGet(hitKey, 1)
	if err != nil {
		panic(fmt.Sprintf("bench: E1 hit get not served: %v", err))
	}
	if err := cc.VerifyGetResponse(now, hitKey, hit); err != nil {
		panic(fmt.Sprintf("bench: E1 hit get failed verification: %v", err))
	}
	if !hit.Found || len(hit.Proof.Levels) != 0 {
		panic("bench: E1 hit key did not resolve in the L0 window")
	}
	res.getHitBytes = size(hit)

	miss, err := w.EdgeNode.AssembleGet(missKey, 2)
	if err != nil {
		panic(fmt.Sprintf("bench: E1 miss get not served: %v", err))
	}
	if err := cc.VerifyGetResponse(now, missKey, miss); err != nil {
		panic(fmt.Sprintf("bench: E1 miss get failed verification: %v", err))
	}
	if len(miss.Proof.Levels) == 0 {
		panic("bench: E1 miss key did not resolve in the merged levels")
	}
	res.getMissBytes = size(miss)

	start, end := workload.KeyName(scanLo), workload.KeyName(scanLo+100)
	scanResp, err := w.EdgeNode.AssembleScan(start, end, 3)
	if err != nil {
		panic(fmt.Sprintf("bench: E1 scan not served: %v", err))
	}
	if err := cc.VerifyScanResponse(now, start, end, scanResp); err != nil {
		panic(fmt.Sprintf("bench: E1 scan failed verification: %v", err))
	}
	res.scanBytes = size(scanResp)

	// Closed-loop gets, 90% miss / 10% hit, through the simulator.
	rounds := scale.rounds(300)
	hits := make([]int, 0, len(written))
	for k := range written {
		hits = append(hits, k)
	}
	sort.Ints(hits)
	started := w.Sim.Now()
	for i := 0; i < rounds; i++ {
		var k int
		if rng.Intn(10) == 0 {
			k = hits[rng.Intn(len(hits))]
		} else {
			for k = rng.Intn(preload); written[k]; {
				k = rng.Intn(preload)
			}
		}
		key := workload.KeyName(k)
		op, envs := session.Get(w.Sim.Now(), key)
		w.Sim.Inject(envs)
		ok := w.Sim.RunWhile(func() bool { return !op.Done }, w.Sim.Now()+int64(600e9))
		if !ok || op.Err != nil {
			panic(fmt.Sprintf("bench: E1 get failed: ok=%v err=%v", ok, op.Err))
		}
	}
	res.getsPerSec = float64(rounds) / (float64(w.Sim.Now()-started) / 1e9)
	return res
}
