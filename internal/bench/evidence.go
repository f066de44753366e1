package bench

import (
	"fmt"
	"math/rand"

	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// evidenceWindows is the E1 x axis: uncompacted L0 blocks at serve time.
var evidenceWindows = []int{1, 16, 64}

// EvidencePruning (E1) prices pruned read evidence: point gets and range
// scans served under controlled uncompacted L0 windows of 1/16/64 blocks,
// where each window block whose digest-committed key summary excludes the
// request ships as a ~60-byte pruned reference. (The whole-window shape it
// replaced is recorded in ROADMAP's performance baseline.)
//
// Three read shapes per window:
//
//   - get hit: the key's freshest version is in one window block — that
//     block ships full, the rest of the window prunes;
//   - get miss: the key resolves in the merged levels — the entire
//     window prunes to summaries;
//   - scan miss: a 100-key range over compacted keyspace disjoint from
//     the window's key band — the window prunes via its [Min,Max]
//     intervals.
//
// Every sampled response is fully verified client-side (signature,
// window binding, exclusion soundness, level proofs), so the byte counts
// are for real, accepted evidence. Throughput drives a closed-loop
// 90%-miss/10%-hit get mix through the simulator.
func EvidencePruning(scale Scale) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Read evidence pruning: bytes/read and get throughput vs uncompacted L0 window (B=100, 1 shard)",
		Header: []string{"L0 window", "Get hit (B)", "Get miss (B)",
			"Scan 100 (B)", "Gets/s (90% miss)"},
	}
	for _, window := range evidenceWindows {
		r := runEvidence(scale, window)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(window),
			fmt.Sprint(r.getHitBytes),
			fmt.Sprint(r.getMissBytes),
			fmt.Sprint(r.scanBytes),
			f1(r.getsPerSec),
		})
	}
	t.Notes = append(t.Notes,
		"window blocks certified but uncompacted; each block writes one 100-key band, so summaries prune by interval and fingerprint",
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
// uncompacted window of `window` blocks, then measures evidence sizes and
// closed-loop get throughput.
func runEvidence(scale Scale, window int) evidenceResult {
	const batch = 100
	const l0Threshold = 10
	// The window overwrites bands [0, window*batch). The preload's own
	// tail can leave up to l0Threshold blocks (1000 keys) uncompacted —
	// they ride along as extra pruned window positions — so misses and
	// scans must address the compacted middle: above the window bands,
	// below the possibly-uncompacted tail, with room for the scan range.
	preload := scale.preload(20_000)
	if min := window*batch + 2*l0Threshold*batch; preload < min {
		preload = min
	}
	w := BuildWorld(WorldCfg{
		System:     Wedge,
		Clients:    1,
		Batch:      batch,
		KeySpace:   preload,
		Preload:    preload,
		Place:      defaultPlace,
		Rounds:     1,
		FlushEvery: int64(10e6),
	})
	w.Preload()

	// Freeze compaction, then grow the window: block j overwrites the
	// 100-key band [j*batch, (j+1)*batch), so each block's key summary
	// covers one narrow interval of the preloaded keyspace.
	w.EdgeNode.SetL0Threshold(1 << 30)
	session := w.WedgeSessions[0]
	val := make([]byte, 100)
	for j := 0; j < window; j++ {
		keys := make([][]byte, batch)
		values := make([][]byte, batch)
		for i := 0; i < batch; i++ {
			keys[i] = workload.KeyName(j*batch + i)
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

	// Keys: hits live in the window's bands; misses and the scan range in
	// the compacted middle, clear of the preload's uncompacted tail.
	compactedLo, compactedHi := window*batch, preload-l0Threshold*batch
	mid := (compactedLo + compactedHi) / 2
	hitKey := workload.KeyName(window*batch/2 + 3)
	missKey := workload.KeyName(mid)
	scanLo := mid + 200

	res := evidenceResult{}
	hit := w.EdgeNode.AssembleGet(hitKey, 1)
	if err := cc.VerifyGetResponse(now, hitKey, hit); err != nil {
		panic(fmt.Sprintf("bench: E1 hit get failed verification: %v", err))
	}
	if !hit.Found || len(hit.Proof.L0Blocks) == 0 {
		panic("bench: E1 hit key did not resolve in the L0 window")
	}
	res.getHitBytes = size(hit)

	miss := w.EdgeNode.AssembleGet(missKey, 2)
	if err := cc.VerifyGetResponse(now, missKey, miss); err != nil {
		panic(fmt.Sprintf("bench: E1 miss get failed verification: %v", err))
	}
	if len(miss.Proof.Levels) == 0 {
		panic("bench: E1 miss key did not resolve in the merged levels")
	}
	res.getMissBytes = size(miss)

	start, end := workload.KeyName(scanLo), workload.KeyName(scanLo+100)
	scanResp := w.EdgeNode.AssembleScan(start, end, 3)
	if err := cc.VerifyScanResponse(now, start, end, scanResp); err != nil {
		panic(fmt.Sprintf("bench: E1 scan failed verification: %v", err))
	}
	res.scanBytes = size(scanResp)

	// Closed-loop gets, 90% miss / 10% hit, through the simulator.
	rounds := scale.rounds(300)
	rng := rand.New(rand.NewSource(7))
	started := w.Sim.Now()
	for i := 0; i < rounds; i++ {
		var key []byte
		if rng.Intn(10) == 0 {
			key = workload.KeyName(rng.Intn(window * batch))
		} else {
			key = workload.KeyName(window*batch + rng.Intn(preload-window*batch))
		}
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
