// Package integration exercises the full WedgeChain protocol — client,
// edge, cloud — over the discrete-event simulator, including every
// byzantine behaviour the paper's threat model considers.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

const (
	ms = int64(1e6)
	s  = int64(1e9)
)

// world is a ready-to-run cluster: one cloud, one edge, two clients.
type world struct {
	sim   *sim.Sim
	cloud *cloud.Node
	edge  *edge.Node
	c1    *client.Core
	c2    *client.Core
}

type worldOpts struct {
	batch     int
	l0Thresh  int
	fault     *edge.Fault
	gossip    int64
	freshness int64
	proofTO   int64
	flush     int64                       // the edge's FlushEvery; 0 = off (no flush, no run ack)
	net       *faultnet.Net               // link faults; nil = a clean network
	links     map[[2]wire.NodeID]sim.Link // per-link paths; nil = 1 ms everywhere
	metrics   *obs.Registry               // registry the edge's series live in
	// wrapCloud, when set, stands between the sim and the cloud node.
	wrapCloud func(*cloud.Node) core.Handler
}

func newWorld(t *testing.T, o worldOpts) *world {
	t.Helper()
	if o.batch == 0 {
		o.batch = 2
	}
	if o.l0Thresh == 0 {
		o.l0Thresh = 2
	}
	if o.proofTO == 0 {
		o.proofTO = 200 * ms
	}
	if o.gossip == 0 {
		o.gossip = -1 // no gossip unless the test asks for it
	}
	if o.flush == 0 {
		o.flush = -1
	}
	d, err := deploy.Build(deploy.Topology{
		Clients: 2,
		Cloud:   cloud.Config{Levels: 3, PageCap: 4, GossipEvery: o.gossip},
		Edge: edge.Config{
			BatchSize:       o.batch,
			L0Threshold:     o.l0Thresh,
			FlushEvery:      o.flush,
			LevelThresholds: []int{2, 4, 8},
			Metrics:         o.metrics,
		},
		Faults: map[wire.NodeID]*edge.Fault{"edge-1": o.fault},
	})
	if err != nil {
		t.Fatal(err)
	}
	mkClient := func(id wire.NodeID) *client.Core {
		return client.New(client.Config{
			ID:              id,
			Edge:            "edge-1",
			Cloud:           "cloud",
			ProofTimeout:    o.proofTO,
			FreshnessWindow: o.freshness,
		}, d.Keys[id], d.Registry)
	}
	w := &world{cloud: d.Cloud, edge: d.Chains[0][0], c1: mkClient("c1"), c2: mkClient("c2")}
	w.sim = sim.New(sim.Config{
		TickEvery:   5 * ms,
		DefaultLink: sim.Link{Latency: 1 * ms},
		Links:       o.links,
		Fault:       o.net,
	})
	var cloudNode core.Handler = w.cloud
	if o.wrapCloud != nil {
		cloudNode = o.wrapCloud(w.cloud)
	}
	for _, h := range []core.Handler{cloudNode, w.edge, w.c1, w.c2} {
		w.sim.Add(h)
	}
	return w
}

func (w *world) add(c *client.Core, payload string) *client.Op {
	op, envs := c.Add(w.sim.Now(), []byte(payload))
	w.sim.Inject(envs)
	return op
}

func (w *world) put(c *client.Core, key, value string) *client.Op {
	op, envs := c.Put(w.sim.Now(), []byte(key), []byte(value))
	w.sim.Inject(envs)
	return op
}

func (w *world) read(c *client.Core, bid uint64) *client.Op {
	op, envs := c.Read(w.sim.Now(), bid)
	w.sim.Inject(envs)
	return op
}

func (w *world) get(c *client.Core, key string) *client.Op {
	op, envs := c.Get(w.sim.Now(), []byte(key))
	w.sim.Inject(envs)
	return op
}

func (w *world) settle(t *testing.T, limit int64) {
	t.Helper()
	w.sim.Drain(w.sim.Now() + limit)
}

func TestHonestAddReachesBothPhases(t *testing.T) {
	w := newWorld(t, worldOpts{})
	op1 := w.add(w.c1, "m0")
	op2 := w.add(w.c2, "m1")
	w.settle(t, 2*s)

	for i, op := range []*client.Op{op1, op2} {
		if op.Phase != core.PhaseII {
			t.Fatalf("op%d phase = %v, want phase-II (err=%v)", i+1, op.Phase, op.Err)
		}
		if op.Err != nil {
			t.Fatalf("op%d err = %v", i+1, op.Err)
		}
		if op.BID != 0 {
			t.Fatalf("op%d bid = %d, want 0", i+1, op.BID)
		}
		if op.PhaseIAt >= op.PhaseIIAt {
			t.Fatalf("op%d: Phase I at %d not before Phase II at %d", i+1, op.PhaseIAt, op.PhaseIIAt)
		}
	}
	if got := w.edge.Log().CertifiedBlocks(); got != 1 {
		t.Fatalf("certified blocks = %d", got)
	}
}

// TestSinglePutIsBatchOfOne: a single put leaves the client as a batch of
// one under one MAC, reaches both phases, and the entry its
// acknowledged and certified block holds carries no signature of its own.
func TestSinglePutIsBatchOfOne(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 1})
	op, envs := w.c1.Put(w.sim.Now(), []byte("k"), []byte("v"))
	if b, ok := envs[0].Msg.(*wire.PutBatch); len(envs) != 1 || !ok || len(b.Entries) != 1 || len(b.MAC) != wcrypto.MACSize {
		t.Fatalf("a put sent %d envelopes, the first a %T, want one MACed batch of one", len(envs), envs[0].Msg)
	}
	w.sim.Inject(envs)
	w.settle(t, 2*s)
	if op.Phase != core.PhaseII || op.Err != nil {
		t.Fatalf("put: phase %v err %v", op.Phase, op.Err)
	}
	blk, err := w.edge.Log().Block(op.BID)
	if err != nil || len(blk.Entries) != 1 {
		t.Fatalf("block %d: %v", op.BID, err)
	}
	if e := blk.Entries[0]; e.Client != "c1" || string(e.Key) != "k" || len(e.Sig) != 0 {
		t.Fatalf("stored entry = %+v, want c1's put with an empty Sig", e)
	}
}

// l0Cases are the two states a read of block 0 meets: still in the L0
// window, and released — an L0 merge moved the compaction frontier past
// it, so the edge keeps only its canonical bytes and decodes it per read.
var l0Cases = []struct {
	name     string
	l0Thresh int
}{{"in-L0", 100}, {"released", 1}}

// requireReleased fails unless an L0 merge moved the edge's compaction
// frontier past block bid (when the case expects one).
func requireReleased(t *testing.T, ed *edge.Node, l0Thresh int, bid uint64) {
	t.Helper()
	if l0Thresh == 1 && ed.L0From() <= bid {
		t.Fatalf("compaction frontier %d has not passed block %d", ed.L0From(), bid)
	}
}

func TestAgreementTwoReadersSameBlock(t *testing.T) {
	for _, tc := range l0Cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, worldOpts{l0Thresh: tc.l0Thresh})
			w.add(w.c1, "m0")
			w.add(w.c1, "m1")
			w.settle(t, 2*s)
			requireReleased(t, w.edge, tc.l0Thresh, 0)

			r1 := w.read(w.c1, 0)
			r2 := w.read(w.c2, 0)
			w.settle(t, 2*s)

			// Phase II: each reader verified the block against its certificate.
			if r1.Phase != core.PhaseII || r2.Phase != core.PhaseII {
				t.Fatalf("read phases = %v / %v (err=%v / %v)", r1.Phase, r2.Phase, r1.Err, r2.Err)
			}
			if r1.Block == nil || r2.Block == nil || len(r1.Block.Entries) != 2 {
				t.Fatal("missing blocks")
			}
			if !bytes.Equal(r1.Block.Canonical(), r2.Block.Canonical()) {
				t.Fatal("agreement violated: two Phase II readers saw different blocks")
			}
		})
	}
}

func TestPhaseIReadGetsForwardedProof(t *testing.T) {
	// Slow the edge-cloud link so a read lands between Phase I and
	// Phase II of the block.
	w := newWorld(t, worldOpts{l0Thresh: 100, proofTO: 10 * s, links: map[[2]wire.NodeID]sim.Link{
		{"edge-1", "cloud"}: {Latency: 100 * ms},
		{"cloud", "edge-1"}: {Latency: 100 * ms},
	}})
	op1, op2 := w.add(w.c1, "m0"), w.add(w.c1, "m1")
	// Run just past Phase I but before the certify round trip completes.
	w.sim.RunUntil(w.sim.Now() + 50*ms)
	if op1.Phase != core.PhaseI {
		t.Fatalf("op1 phase = %v, want phase-I", op1.Phase)
	}
	rop := w.read(w.c2, 0)
	w.sim.RunUntil(w.sim.Now() + 50*ms)
	if rop.Phase != core.PhaseI {
		t.Fatalf("read phase = %v, want phase-I (Phase I read before certification)", rop.Phase)
	}
	// Let certification finish; the edge forwards the proof to the reader.
	w.sim.RunUntil(w.sim.Now() + 500*ms)
	if rop.Phase != core.PhaseII {
		t.Fatalf("read phase = %v, want phase-II after proof forwarding (err=%v)", rop.Phase, rop.Err)
	}
	if op1.Phase != core.PhaseII || op2.Phase != core.PhaseII {
		t.Fatalf("writer phases = %v/%v", op1.Phase, op2.Phase)
	}
}

func TestPutsMergesAndVerifiedGets(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 2})
	model := map[string]string{}
	// 24 puts -> 12 blocks -> several L0 merges and at least one cascade.
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k%02d", i%8)
		val := fmt.Sprintf("v%02d", i)
		model[key] = val
		c := w.c1
		if i%2 == 1 {
			c = w.c2
		}
		op := w.put(c, key, val)
		w.settle(t, 2*s)
		if op.Err != nil {
			t.Fatalf("put %d: %v", i, op.Err)
		}
	}
	w.settle(t, 5*s)
	if w.edge.Stats().Merges == 0 {
		t.Fatal("no merges happened; test parameters wrong")
	}
	for key, want := range model {
		op := w.get(w.c2, key)
		w.settle(t, 2*s)
		if op.Err != nil {
			t.Fatalf("get %s: %v", key, op.Err)
		}
		if !op.Found || string(op.GotValue) != want {
			t.Fatalf("get %s = %q (found=%v), want %q", key, op.GotValue, op.Found, want)
		}
		if op.Phase != core.PhaseII {
			t.Fatalf("get %s phase = %v", key, op.Phase)
		}
	}
	// Verified non-existence.
	op := w.get(w.c1, "missing-key")
	w.settle(t, 2*s)
	if op.Err != nil {
		t.Fatalf("get missing: %v", op.Err)
	}
	if op.Found {
		t.Fatal("missing key reported found")
	}
}

func TestGetBeforeAnyMerge(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 2, l0Thresh: 100})
	w.put(w.c1, "a", "1")
	w.put(w.c2, "b", "2")
	w.settle(t, 2*s)
	op := w.get(w.c1, "a")
	w.settle(t, 2*s)
	if op.Err != nil || !op.Found || string(op.GotValue) != "1" {
		t.Fatalf("get a = %q found=%v err=%v", op.GotValue, op.Found, op.Err)
	}
	op = w.get(w.c1, "zz")
	w.settle(t, 2*s)
	if op.Err != nil || op.Found {
		t.Fatalf("get zz found=%v err=%v", op.Found, op.Err)
	}
}

func TestTamperedAddIsDetectedAndPunished(t *testing.T) {
	fault := &edge.Fault{TamperAddVictim: "c1"}
	w := newWorld(t, worldOpts{fault: fault})
	op1 := w.add(w.c1, "victim-entry")
	w.add(w.c2, "other-entry")
	w.settle(t, 5*s)

	if !errors.Is(op1.Err, client.ErrEdgeLied) {
		t.Fatalf("victim op err = %v, want ErrEdgeLied (phase=%v)", op1.Err, op1.Phase)
	}
	if op1.Verdict == nil || !op1.Verdict.Guilty {
		t.Fatalf("verdict = %+v, want guilty", op1.Verdict)
	}
	if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
		t.Fatal("cloud did not punish the edge")
	}
	if w.c1.Stats().LiesDetected == 0 {
		t.Fatal("client did not count the lie")
	}
}

func TestTamperedReadIsDetectedAndPunished(t *testing.T) {
	for _, tc := range l0Cases {
		t.Run(tc.name, func(t *testing.T) {
			fault := &edge.Fault{}
			w := newWorld(t, worldOpts{fault: fault, l0Thresh: tc.l0Thresh})
			w.add(w.c1, "m0")
			w.add(w.c1, "m1")
			w.settle(t, 2*s)
			requireReleased(t, w.edge, tc.l0Thresh, 0)

			fault.TamperReadVictim = "c2"
			rop := w.read(w.c2, 0)
			// Use RunUntil: the lie only surfaces through the client's proof
			// timeout, which Drain's quiet-period heuristic would skip past.
			w.sim.RunUntil(w.sim.Now() + 5*s)

			if !errors.Is(rop.Err, client.ErrEdgeLied) {
				t.Fatalf("read err = %v, want ErrEdgeLied (phase=%v)", rop.Err, rop.Phase)
			}
			if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
				t.Fatal("cloud did not punish the edge")
			}
		})
	}
}

func TestDoubleCertifyFlaggedByCloud(t *testing.T) {
	fault := &edge.Fault{DoubleCertify: true}
	w := newWorld(t, worldOpts{fault: fault})
	w.add(w.c1, "m0")
	w.add(w.c2, "m1")
	w.settle(t, 2*s)

	if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
		t.Fatal("certify-time equivocation not flagged")
	}
	if w.cloud.Stats().Conflicts == 0 {
		t.Fatal("no conflict recorded")
	}
}

func TestOmissionDetectedViaGossip(t *testing.T) {
	fault := &edge.Fault{OmitBlocks: map[uint64]bool{0: true}}
	w := newWorld(t, worldOpts{fault: fault, gossip: 20 * ms})
	w.add(w.c1, "m0")
	w.add(w.c1, "m1")
	w.settle(t, 2*s)
	// Wait for gossip to reach c2.
	w.sim.RunUntil(w.sim.Now() + 100*ms)
	if w.c2.Gossip() == nil {
		t.Fatal("no gossip received")
	}

	rop := w.read(w.c2, 0)
	w.sim.RunUntil(w.sim.Now() + 2*s)

	if !errors.Is(rop.Err, client.ErrEdgeLied) {
		t.Fatalf("read err = %v, want ErrEdgeLied", rop.Err)
	}
	if rop.Verdict == nil || !rop.Verdict.Guilty || rop.Verdict.Kind != wire.DisputeOmission {
		t.Fatalf("verdict = %+v", rop.Verdict)
	}
	if _, flagged := w.cloud.Flagged("edge-1"); !flagged {
		t.Fatal("cloud did not punish the omission")
	}
}

func TestDroppedCertifyConvictedOnTimeout(t *testing.T) {
	fault := &edge.Fault{DropCertify: true}
	w := newWorld(t, worldOpts{fault: fault, proofTO: 100 * ms})
	op := w.add(w.c1, "m0")
	w.add(w.c2, "m1")
	w.sim.RunUntil(w.sim.Now() + 3*s)

	if op.Phase != core.PhaseI && !op.Done {
		t.Fatalf("op should have reached Phase I; got %v", op.Phase)
	}
	if !errors.Is(op.Err, client.ErrEdgeLied) {
		t.Fatalf("op err = %v, want ErrEdgeLied after proof timeout", op.Err)
	}
	if op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("verdict = %+v", op.Verdict)
	}
}

func TestFreshnessWindowRejectsFrozenIndex(t *testing.T) {
	fault := &edge.Fault{}
	w := newWorld(t, worldOpts{fault: fault, freshness: 500 * ms})
	// Build some merged state honestly.
	for i := 0; i < 12; i++ {
		w.put(w.c1, fmt.Sprintf("k%d", i), "v")
		w.settle(t, 2*s)
	}
	w.settle(t, 5*s)
	if w.edge.Stats().Merges == 0 {
		t.Fatal("no merges; cannot test freshness")
	}
	// Freeze the index and let virtual time pass the freshness window.
	fault.FreezeIndex = true
	w.sim.RunUntil(w.sim.Now() + 2*s)

	op := w.get(w.c2, "nonexistent")
	w.sim.RunUntil(w.sim.Now() + 2*s)
	if !errors.Is(op.Err, client.ErrStale) {
		t.Fatalf("get err = %v, want ErrStale", op.Err)
	}
	if w.c2.Stats().StaleRejected == 0 {
		t.Fatal("stale responses not counted")
	}
}

func TestReservationMakesAddsIdempotent(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 2})
	var start uint64
	var granted bool
	w.c1.SetReserveHandler(func(s uint64, n uint32) { start, granted = s, true })
	reserve, err := w.c1.Reserve(w.sim.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Inject(reserve)
	w.settle(t, 1*s)
	if !granted {
		t.Fatal("reservation not granted")
	}
	op, envs := w.c1.AddAt(w.sim.Now(), []byte("reserved-entry"), start)
	w.sim.Inject(envs)
	w.add(w.c2, "filler") // completes the batch
	w.settle(t, 2*s)
	if op.Phase != core.PhaseII {
		t.Fatalf("reserved add phase = %v (err=%v)", op.Phase, op.Err)
	}
	// The committed block must hold the entry at the reserved position.
	blk, err := w.edge.Log().Block(op.BID)
	if err != nil {
		t.Fatal(err)
	}
	idx := int(start - blk.StartPos)
	if string(blk.Entries[idx].Value) != "reserved-entry" {
		t.Fatalf("entry at reserved position = %q", blk.Entries[idx].Value)
	}
	// A replayed entry for the same position must not commit again.
	before := w.edge.Log().NumBlocks()
	op2, envs2 := w.c1.AddAt(w.sim.Now(), []byte("replayed"), start)
	w.sim.Inject(envs2)
	w.settle(t, 1*s)
	if op2.Phase != core.PhaseNone {
		t.Fatalf("replayed add advanced to %v", op2.Phase)
	}
	if w.edge.Log().NumBlocks() != before {
		t.Fatal("replay created new blocks")
	}
}

// TestResentReservedAddLandsInItsSlot: the first send of an AddAt is lost;
// the client's retry pass re-sends it for the position it reserved, so it fills
// that slot — behind which later appends were already queued — instead of
// joining the end of the log while the reservation blocks every cut until
// it expires into a no-op.
func TestResentReservedAddLandsInItsSlot(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 3})
	var start uint64
	w.c1.SetReserveHandler(func(s uint64, n uint32) { start = s })
	reserve, err := w.c1.Reserve(w.sim.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Inject(reserve)
	w.settle(t, 1*s)
	op, _ := w.c1.AddAt(w.sim.Now(), []byte("reserved-entry"), start) // never injected: lost
	w.add(w.c2, "later-1")
	w.add(w.c2, "later-2")
	w.sim.RunUntil(w.sim.Now() + 1*s) // past the retry deadline, short of ReserveTTL
	if op.Phase != core.PhaseII {
		t.Fatalf("reserved add phase = %v (err=%v) after %d re-sends", op.Phase, op.Err, w.c1.Stats().Resends)
	}
	blk, err := w.edge.Log().Block(op.BID)
	if err != nil {
		t.Fatal(err)
	}
	if got := blk.Entries[start-blk.StartPos]; string(got.Value) != "reserved-entry" || got.Pos != start+1 {
		t.Fatalf("entry in the reserved slot = %+v", got)
	}
	if len(blk.Entries) != 3 || w.edge.Log().BufferLen() != 0 {
		t.Fatalf("block holds %d entries, %d still buffered: the entry landed elsewhere", len(blk.Entries), w.edge.Log().BufferLen())
	}
}

// TestDroppedWriteHealsByDefault: a client with no retry setting of any
// kind loses the first frame of a write; the re-send its proof timeout
// schedules reaches the edge, and the write is certified.
func TestDroppedWriteHealsByDefault(t *testing.T) {
	w := newWorld(t, worldOpts{batch: 1})
	op, _ := w.c1.Put(w.sim.Now(), []byte("k"), []byte("v")) // never injected: lost
	w.sim.RunUntil(w.sim.Now() + 1*s)
	if op.Phase != core.PhaseII || op.Err != nil {
		t.Fatalf("dropped write: phase %v, err %v after %d re-sends", op.Phase, op.Err, w.c1.Stats().Resends)
	}
}

// TestValidityOnlyClientEntriesCommit: every committed entry was proposed
// by an authenticated client. The edge checks a write's batch MAC on
// arrival, and the block keeps no per-entry proof of authorship: what
// commits is exactly what each client sent, and a batch its sender did
// not MAC, or MACed for another client's entries, commits nothing.
func TestValidityOnlyClientEntriesCommit(t *testing.T) {
	w := newWorld(t, worldOpts{})
	sent := map[wire.NodeID]*client.Op{"c1": w.add(w.c1, "m0"), "c2": w.add(w.c2, "m1")}
	w.settle(t, 2*s)
	keys, toEdge, _ := deploy.Keys(deploy.Topology{Clients: 2}) // what the clients know
	c1, c2 := keys["c1"], keys["c2"]
	forged := &wire.PutBatch{Client: "c2", Entries: []wire.Entry{{Client: "c1", Seq: 99, Value: []byte("forged")}}}
	unsigned := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{{Client: "c1", Seq: 98, Value: []byte("forged")}}}
	var err1, err2 error
	forged.MAC, err1 = wcrypto.MAC(toEdge, c2, "c2", "edge-1", forged)
	unsigned.MAC, err2 = wcrypto.MAC(toEdge, c1, "c1", "edge-1", unsigned)
	if err1 != nil || err2 != nil {
		t.Fatal("MACing the test batches failed")
	}
	unsigned.Entries[0].Value = []byte("tampered")
	w.sim.Inject([]wire.Envelope{
		{From: "c1", To: "edge-1", Msg: forged},
		{From: "c2", To: "edge-1", Msg: forged},
		{From: "c1", To: "edge-1", Msg: unsigned},
	})
	w.settle(t, 2*s)
	if n, buf := w.edge.Log().NumBlocks(), w.edge.Log().BufferLen(); n != 1 || buf != 0 {
		t.Fatalf("%d blocks and %d buffered entries, want the honest block alone", n, buf)
	}
	blk, err := w.edge.Log().Block(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blk.Entries {
		e := &blk.Entries[i]
		op := sent[e.Client]
		if op == nil || e.Seq != op.Seq || !bytes.Equal(e.Value, op.Value) || len(e.Sig) != 0 {
			t.Fatalf("committed entry %d = %+v, not one a client sent", i, e)
		}
		delete(sent, e.Client)
	}
	if len(sent) != 0 {
		t.Fatalf("writes of %v never committed", sent)
	}
}

func TestGossipCountsCertifiedBlocks(t *testing.T) {
	w := newWorld(t, worldOpts{gossip: 20 * ms})
	for i := 0; i < 6; i++ {
		w.add(w.c1, fmt.Sprintf("m%d", i))
		w.settle(t, 1*s)
	}
	w.sim.RunUntil(w.sim.Now() + 200*ms)
	g := w.c1.Gossip()
	if g == nil {
		t.Fatal("no gossip")
	}
	if g.Blocks != 3 {
		t.Fatalf("gossip blocks = %d, want 3", g.Blocks)
	}
}
