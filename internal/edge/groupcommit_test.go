package edge

import (
	"fmt"
	"testing"
	"time"

	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// A persistent edge syncs at most once per group-commit window, counted
// from the return of its last successful sync: a block cut past the window is synced
// and released in its own turn, blocks cut sooner wait for the first turn
// of any kind past it, and nothing leaves before a sync covers it.

// The tests' virtual clock runs in milliseconds (ms), against windows of
// 100 ms. A window starts when its fsync returns, which adds the fsync's
// real duration to it; the tests leave seconds of slack for that.
func ms(v int64) int64 { return v * int64(time.Millisecond) }

// gcRig is a persistent edge-1 with one-entry blocks under a group-commit
// window of windowMS milliseconds (each option applied to its config), the
// client c1 writing to it, and a replica edge-1.r1 that may ask it for
// catch-up.
type gcRig struct {
	n       *Node
	cfg     Config
	dir     string
	keys    map[wire.NodeID]wcrypto.KeyPair
	reg     *wcrypto.Registry
	metrics *obs.Registry
}

func newGCRig(t *testing.T, windowMS int64, opts ...func(*Config)) *gcRig {
	t.Helper()
	r := &gcRig{keys: map[wire.NodeID]wcrypto.KeyPair{}, reg: wcrypto.NewRegistry(), metrics: obs.NewRegistry(), dir: t.TempDir()}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		r.keys[id] = k
		r.reg.Register(id, k.Pub)
	}
	r.cfg = Config{
		ID: "edge-1", Cloud: "cloud",
		BatchSize: 1, L0Threshold: 100,
		SyncEvery: ms(windowMS),
		Metrics:   r.metrics,
	}
	for _, opt := range opts {
		opt(&r.cfg)
	}
	n, _, err := NewPersistent(r.cfg, r.keys["edge-1"], r.reg, r.dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	return r
}

// write sends c1's entry seq (a resend when seq was sent before) and
// returns what the turn released, every release checked for durability.
func (r *gcRig) write(t *testing.T, now int64, seq uint64) []wire.Envelope {
	t.Helper()
	return r.durable(t, r.n.Receive(now, put(r.keys["c1"], wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}})))
}

// tick runs one Tick, its releases checked for durability.
func (r *gcRig) tick(t *testing.T, now int64) []wire.Envelope {
	t.Helper()
	return r.durable(t, r.n.Tick(now))
}

// durable fails the test if out acknowledges, serves, replicates or
// certifies a block no successful sync covers yet, and returns out.
func (r *gcRig) durable(t *testing.T, out []wire.Envelope) []wire.Envelope {
	t.Helper()
	for _, env := range out {
		var bids []uint64
		switch m := env.Msg.(type) {
		case *wire.PutResponse:
			if !m.Run { // a run ack is covered by its run record (TestRunAckContract)
				bids = append(bids, m.BID)
			}
		case *wire.ReadResponse:
			if m.OK {
				bids = append(bids, m.BID)
			}
		case *wire.ScanResponse:
			for _, s := range m.Proof.L0Pruned {
				bids = append(bids, s.ID)
			}
		case *wire.ReplicateBlock:
			if !m.Run {
				bids = append(bids, m.Block.ID)
			}
		case *wire.BlockCertify:
			bids = append(bids, m.BID)
		}
		for _, bid := range bids {
			if !r.n.store.Covers(bid) {
				t.Fatalf("%v for block %d released before a sync covers it", env.Msg.MsgKind(), bid)
			}
		}
	}
	return out
}

// syncs runs f and returns the fsyncs it issued.
func (r *gcRig) syncs(f func()) uint64 {
	before := r.n.StoreSyncs()
	f()
	return r.n.StoreSyncs() - before
}

func (r *gcRig) ackHold() *obs.Histogram {
	return r.metrics.HistogramVec("wedge_edge_ack_hold_seconds", "", obs.LatencyBuckets, "node").With("edge-1")
}

// TestGroupCommitWithholdsAcksUntilSharedSync drives an edge configured
// with a group-commit window: a block cut with no sync inside the window
// is synced and acknowledged in its own turn, blocks cut inside the
// window produce no acknowledgements until the window-expiry flush
// releases them after one shared fsync, and a restart recovers every
// acknowledged block — the durability contract group commit must keep. A
// zero window is the same path: each block's acknowledgements leave in
// the turn that cut it, after a sync of its own.
func TestGroupCommitWithholdsAcksUntilSharedSync(t *testing.T) {
	for _, window := range []int64{100, 0} { // ms
		t.Run(fmt.Sprintf("SyncEvery=%d", window), func(t *testing.T) {
			testGroupCommit(t, window)
		})
	}
}

func testGroupCommit(t *testing.T, window int64) {
	r := newGCRig(t, window)
	// ownTurn writes seq at now and requires its block to be acknowledged
	// and certified in that turn, after exactly one fsync.
	ownTurn := func(now int64, seq uint64) {
		t.Helper()
		var k map[wire.Kind]int
		if got := r.syncs(func() { k = kindsOf(r.write(t, now, seq)) }); got != 1 {
			t.Fatalf("write %d issued %d fsyncs, want 1", seq, got)
		}
		if k[wire.KindPutResponse] != 1 || k[wire.KindBlockCertify] != 1 {
			t.Fatalf("write %d released %v, want its add response + certify in the same turn", seq, k)
		}
	}

	if window == 0 {
		// Every block is acknowledged in its own turn, one fsync each.
		for seq := uint64(1); seq <= 5; seq++ {
			ownTurn(ms(int64(seq)), seq)
		}
	} else {
		// No sync has run yet: the first block is released in its turn.
		ownTurn(ms(1), 1)

		// Three blocks cut inside the window: acknowledgements withheld.
		for seq := uint64(2); seq <= 4; seq++ {
			if out := r.write(t, ms(int64(seq)), seq); out != nil {
				t.Fatalf("write %d acknowledged before group-commit sync: %v", seq, kindsOf(out))
			}
		}
		if got := r.n.Stats().BlocksCut; got != 4 {
			t.Fatalf("blocks cut = %d, want 4", got)
		}

		// Window expires: one Tick releases every withheld output.
		var k map[wire.Kind]int
		if got := r.syncs(func() { k = kindsOf(r.tick(t, ms(2000))) }); got != 1 {
			t.Fatalf("flush issued %d fsyncs, want 1 shared", got)
		}
		// Block 0's certify went unanswered for the 2 s the clock jumped:
		// the stall retry re-submits it alongside the three released.
		if k[wire.KindPutResponse] != 3 || k[wire.KindBlockCertify] != 4 {
			t.Fatalf("flush released %v, want 3 add responses + 3 certifies + block 0's retry", k)
		}

		// A fifth block cut a window after the last sync is synced and
		// released in its own turn.
		ownTurn(ms(4000), 5)
	}
	// Every block's hold was observed once: none for the blocks released
	// in their own turn, 1998+1997+1996 ms for the three the Tick released.
	wantSum := 0.0
	if window > 0 {
		wantSum = (1998 + 1997 + 1996) / 1e3
	}
	if h := r.ackHold(); h.Count() != 5 || h.Sum() < wantSum*0.999 || h.Sum() > wantSum*1.001 {
		t.Fatalf("ack hold histogram: %d observations summing to %g s, want 5 summing to %g s", h.Count(), h.Sum(), wantSum)
	}

	if err := r.n.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Restart: every acknowledged block must be recovered.
	n2, recovered, err := NewPersistent(r.cfg, r.keys["edge-1"], r.reg, r.dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.CloseStore()
	if recovered != 5 {
		t.Fatalf("recovered %d blocks, want every acknowledged block (5)", recovered)
	}
}

// TestGroupCommitOneSyncPerTurn: the blocks one turn cuts share the sync
// that ends it — a session batch cutting three blocks past the window, or
// under a zero window, is released in its turn after one fsync.
func TestGroupCommitOneSyncPerTurn(t *testing.T) {
	for _, window := range []int64{100, 0} { // ms
		t.Run(fmt.Sprintf("SyncEvery=%d", window), func(t *testing.T) {
			r := newGCRig(t, window)
			defer r.n.CloseStore()
			var entries []wire.Entry
			for seq := uint64(1); seq <= 3; seq++ {
				entries = append(entries, wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}})
			}
			var k map[wire.Kind]int
			if got := r.syncs(func() {
				k = kindsOf(r.durable(t, r.n.Receive(ms(1), put(r.keys["c1"], entries...))))
			}); got != 1 || k[wire.KindPutResponse] != 3 || k[wire.KindBlockCertify] != 3 {
				t.Fatalf("a batch cutting 3 blocks released %v after %d fsyncs, want 3 add responses + 3 certifies after 1", k, got)
			}
		})
	}
}

// TestGroupCommitReleasedByReceivePastWindow: held outputs need no Tick.
// The first turn past the window that is not a read — here a write —
// syncs once and puts them ahead of its own outputs. A read's turn never
// syncs, inside the window or past it: it does not wait on its writers'
// fsync.
func TestGroupCommitReleasedByReceivePastWindow(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.write(t, ms(1), 1)
	if out := r.write(t, ms(2), 2); out != nil {
		t.Fatalf("write 2 acknowledged inside the window: %v", kindsOf(out))
	}
	scan := func(now int64) []wire.Envelope {
		return r.durable(t, r.n.Receive(now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ScanRequest{ReqID: uint64(now)}}))
	}
	for _, at := range []int64{50, 2000} {
		var out []wire.Envelope
		if got := r.syncs(func() { out = scan(ms(at)) }); got != 0 || len(out) != 1 || out[0].Msg.MsgKind() != wire.KindScanResponse {
			t.Fatalf("a scan at %d ms released %v after %d fsyncs, want its response alone and none", at, kindsOf(out), got)
		}
	}
	var out []wire.Envelope
	if got := r.syncs(func() { out = r.write(t, ms(2001), 3) }); got != 1 {
		t.Fatalf("the write past the window issued %d fsyncs, want 1", got)
	}
	k := kindsOf(out)
	if k[wire.KindPutResponse] != 2 || k[wire.KindBlockCertify] != 2 {
		t.Fatalf("the write past the window released %v, want write 2's and its own outputs", k)
	}
	if r, ok := out[0].Msg.(*wire.PutResponse); !ok || r.BID != 1 {
		t.Fatalf("the write past the window released %v first, want write 2's ack", out[0].Msg)
	}
}

// TestGroupCommitFailedSyncStartsNoWindow: a sync that fails releases
// nothing and does not restart the window, so the next block is synced
// in its own turn. A resend of the block whose sync failed is not
// re-acknowledged until a later sync covers it.
func TestGroupCommitFailedSyncStartsNoWindow(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.write(t, ms(1), 1) // the last successful sync runs at 1 ms
	// Closing the segment under the node makes its next sync fail.
	if err := r.n.store.Close(); err != nil {
		t.Fatal(err)
	}
	if out := r.write(t, ms(2), 2); out != nil {
		t.Fatalf("write 2 acknowledged inside the window: %v", kindsOf(out))
	}
	// Block 0's certify went unanswered for the 2 s the clock jumped: the
	// stall retry re-submits it, and nothing else leaves.
	if out := r.tick(t, ms(2000)); len(out) != 1 || out[0].Msg.(*wire.BlockCertify).BID != 0 {
		t.Fatalf("a failed sync released %v", kindsOf(out))
	}
	if out := r.write(t, ms(2010), 2); out != nil {
		t.Fatalf("a resend of a block whose sync failed was answered: %v", kindsOf(out))
	}
	// Repair the segment: the rewrite makes block 1 durable.
	if err := r.n.store.ResetTo(r.n.Log()); err != nil {
		t.Fatal(err)
	}
	if k := kindsOf(r.write(t, ms(2020), 2)); k[wire.KindPutResponse] != 1 {
		t.Fatalf("a resend of a durable block released %v, want its re-ack", k)
	}
	// Only a successful sync starts a window: at 1 ms, not 2,000 ms.
	var k map[wire.Kind]int
	if got := r.syncs(func() { k = kindsOf(r.write(t, ms(2030), 3)) }); got != 1 || k[wire.KindPutResponse] != 1 {
		t.Fatalf("write 3 after a failed sync released %v with %d fsyncs, want its add response after 1", k, got)
	}
}

// TestGroupCommitRestartResetsSyncClock: a restarted node has synced
// nothing in its new life, so its first block as leader is released in
// its own turn however recent the old life's last sync was.
func TestGroupCommitRestartResetsSyncClock(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.write(t, ms(1), 1) // the old life's last sync runs at 1 ms
	r.n.killed = true
	r.n.Restart(ms(2))
	// A blank node leads only after a view has named it a leader to follow.
	for epoch, leader := range []wire.NodeID{"edge-2", "edge-1"} {
		tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: uint64(epoch + 1), NewLeader: leader, Reason: "test", Ts: ms(3)}
		tr.CloudSig = wcrypto.SignMsg(r.keys["cloud"], tr)
		r.durable(t, r.n.Receive(ms(3), wire.Envelope{From: "cloud", To: "edge-1", Msg: tr}))
	}
	if r.n.IsFollower() {
		t.Fatal("the restarted node was not promoted")
	}
	var k map[wire.Kind]int
	if got := r.syncs(func() { k = kindsOf(r.write(t, ms(4), 2)) }); got != 1 || k[wire.KindPutResponse] != 1 {
		t.Fatalf("first block after restart released %v with %d fsyncs, want its add response after 1", k, got)
	}
}

// TestResendNotReackedBeforeSync: a resent write is re-acknowledged at
// once only from a block a sync covers; a resend of a block whose
// acknowledgements are still held waits with them for the shared sync.
func TestResendNotReackedBeforeSync(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.write(t, ms(1), 1)
	if k := kindsOf(r.write(t, ms(2), 1)); k[wire.KindPutResponse] != 1 {
		t.Fatalf("a resend of a durable block released %v, want its re-ack", k)
	}
	r.write(t, ms(3), 2) // held: the last sync ran at 1 ms
	if out := r.write(t, ms(4), 2); out != nil {
		t.Fatalf("a resend of a held block was answered before its sync: %v", kindsOf(out))
	}
	var k map[wire.Kind]int
	if got := r.syncs(func() { k = kindsOf(r.tick(t, ms(2000))) }); got != 1 || k[wire.KindPutResponse] != 2 {
		t.Fatalf("the flush released %v with %d fsyncs, want the ack and the re-ack after 1", k, got)
	}
}

// heldBlock writes two blocks: block 0 is synced and released in its turn,
// block 1 is cut inside the window and held.
func (r *gcRig) heldBlock(t *testing.T) {
	t.Helper()
	r.write(t, ms(1), 1)
	if out := r.write(t, ms(2), 2); out != nil {
		t.Fatalf("write 2 acknowledged inside the window: %v", kindsOf(out))
	}
}

// TestReadNotServedBeforeSync: a read of a block no sync covers yet is
// answered with the block's own held outputs, after the shared sync — a
// crash before it must not leave a reader holding a signed block the node
// lost.
func TestReadNotServedBeforeSync(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.heldBlock(t)
	read := func(now int64, bid uint64) []wire.Envelope {
		return r.durable(t, r.n.Receive(now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{ReqID: bid, BID: bid}}))
	}
	if k := kindsOf(read(ms(3), 0)); k[wire.KindReadResponse] != 1 {
		t.Fatalf("a read of the synced block released %v, want its response", k)
	}
	if out := read(ms(4), 1); out != nil {
		t.Fatalf("a read of the held block was answered before its sync: %v", kindsOf(out))
	}
	if k := kindsOf(r.tick(t, ms(2000))); k[wire.KindReadResponse] != 1 || k[wire.KindPutResponse] != 1 {
		t.Fatalf("the flush released %v, want the held ack and the read response", k)
	}
}

// TestScanWindowEndsAtSyncedBlock: a scan's (and so a get's) L0 window ends
// at the first block no sync covers. Signing rows of a held block would
// leave a reader holding evidence of a block a crash can still lose; once
// the shared sync covers it, the next scan's window reaches it.
func TestScanWindowEndsAtSyncedBlock(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.heldBlock(t)
	scan := func(now int64, reqID uint64) []uint64 {
		t.Helper()
		m, _ := only[*wire.ScanResponse](t, r.durable(t, r.n.Receive(now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ScanRequest{ReqID: reqID}})))
		var ids []uint64
		for _, s := range m.Proof.L0Pruned {
			ids = append(ids, s.ID)
		}
		return ids
	}
	if ids := scan(ms(3), 1); fmt.Sprint(ids) != "[0]" {
		t.Fatalf("scan window before the sync = %v, want [0]", ids)
	}
	r.tick(t, ms(2000))
	if ids := scan(ms(2001), 2); fmt.Sprint(ids) != "[0 1]" {
		t.Fatalf("scan window after the sync = %v, want [0 1]", ids)
	}
}

// TestCatchUpRunStopsAtUnsyncedBlock: a catch-up run ships the synced
// prefix and stops at the first block no sync covers.
func TestCatchUpRunStopsAtUnsyncedBlock(t *testing.T) {
	r := newGCRig(t, 100)
	defer r.n.CloseStore()
	r.heldBlock(t)
	req := &wire.CatchUpRequest{Chain: "edge-1", Node: "edge-1.r1", From: 0, Ts: ms(3)}
	req.Sig = wcrypto.SignMsg(r.keys["edge-1.r1"], req)
	out := r.durable(t, r.n.Receive(ms(3), wire.Envelope{From: "edge-1.r1", To: "edge-1", Msg: req}))
	if k := kindsOf(out); len(out) != 1 || k[wire.KindReplicateBlock] != 1 {
		t.Fatalf("the catch-up run sent %v, want block 0 alone", k)
	}
}

// TestStallRetryStopsAtUnsyncedBlock: the stall-gated certification retry
// re-submits the synced part of the uncertified tail and stops at the
// first block no sync covers; that block's certify leaves with its sync.
// The window outlasts the stall period, so the retry's tick runs no sync.
func TestStallRetryStopsAtUnsyncedBlock(t *testing.T) {
	r := newGCRig(t, 5000)
	defer r.n.CloseStore()
	r.heldBlock(t)
	if c, _ := only[*wire.BlockCertify](t, r.tick(t, ms(1003))); c.BID != 0 {
		t.Fatalf("the stalled retry certified block %d, want block 0", c.BID)
	}
}

// TestRunAckContract pins what the macro benchmark reads of the write path
// and its durability check. In a run ack, Block.StartPos + i is the log
// position of Block.Entries[i]: the position the cut block holds it at. A
// run ack leaves only once a sync covers its run record. With run records
// in the segment, wlog.Recover counts exactly the blocks the leader cut
// (Stats().BlocksCut), and a leader restarted after a synced run ack cuts
// the recovered run at its promised positions.
func TestRunAckContract(t *testing.T) {
	r := newGCRig(t, 0, func(c *Config) { c.BatchSize = 4 })
	entry := func(seq uint64) wire.Entry { return wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}} }
	var runs []*wire.PutResponse
	for i, batch := range [][]wire.Entry{{entry(1)}, {entry(2), entry(3)}} {
		syncs := r.n.store.Syncs()
		out := r.durable(t, r.n.Receive(ms(int64(1+i)), put(r.keys["c1"], batch...)))
		run, _ := only[*wire.PutResponse](t, out)
		if !run.Run || len(run.Block.Entries) != len(batch) || r.n.store.Syncs() != syncs+1 {
			t.Fatalf("batch %d: %v after %d syncs, want its run ack after one", i, kindsOf(out), r.n.store.Syncs()-syncs)
		}
		runs = append(runs, run)
	}
	out := r.durable(t, r.n.Tick(ms(500))) // the idle flush cuts block 0
	blk, _ := only[*wire.PutResponse](t, out)
	if blk.Run || blk.BID != 0 {
		t.Fatalf("the flush released %v, want block 0's ack", kindsOf(out))
	}
	for _, run := range runs {
		for i := range run.Block.Entries {
			pos := run.Block.StartPos + uint64(i)
			if e, ok := r.n.Log().EntryAt(pos); !ok || !e.Equal(&run.Block.Entries[i]) || !blk.Block.Entries[pos-blk.Block.StartPos].Equal(&e) {
				t.Fatalf("run entry %d is not at its promised position %d", i, pos)
			}
		}
	}
	out = r.durable(t, r.n.Receive(ms(501), put(r.keys["c1"], entry(4))))
	promise, _ := only[*wire.PutResponse](t, out)
	if !promise.Run || promise.BID != 1 || promise.Block.StartPos != 3 {
		t.Fatalf("write 4 released %v, want the run ack of position 3 in block 1", kindsOf(out))
	}
	// The leader stops here: block 1 is never cut, its run is synced.
	cut := r.n.Stats().BlocksCut
	if err := r.n.CloseStore(); err != nil {
		t.Fatal(err)
	}
	_, st, blocks, _, err := wlog.Recover(r.dir, "edge-1", 4, r.reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if uint64(blocks) != cut || cut != 1 {
		t.Fatalf("the leader cut %d blocks and %d recovered", cut, blocks)
	}
	n, _, err := NewPersistent(r.cfg, r.keys["edge-1"], r.reg, r.dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	defer n.CloseStore()
	out = r.durable(t, n.Tick(ms(1000)))
	blk, _ = only[*wire.PutResponse](t, out)
	if blk.Run || blk.BID != 1 || blk.Block.StartPos != 3 || !blk.Block.Entries[0].Equal(&promise.Block.Entries[0]) {
		t.Fatalf("the restarted leader released %v, want block 1 holding write 4 at position 3", kindsOf(out))
	}
}

// TestRecoverBehindExpiredReservation: a reservation left to expire sits
// ahead of a later write in the cut buffer and becomes a no-op only at the
// cut, so the write is not run-acked: no record promises a position that
// recovery, refilling the buffer from run records alone, could not put
// back. A leader that stops there recovers its cut blocks and an empty
// buffer, and the next block's first write is run-acked and recovered at
// its promised position.
func TestRecoverBehindExpiredReservation(t *testing.T) {
	r := newGCRig(t, 0, func(c *Config) { c.BatchSize = 4 })
	req := &wire.ReserveRequest{Client: "c1", Count: 1, ReqID: 7}
	req.ClientSig = wcrypto.SignMsg(r.keys["c1"], req)
	r.durable(t, r.n.Receive(ms(1), wire.Envelope{From: "c1", To: "edge-1", Msg: req}))
	expired := ms(1) + reserveTTL + 1
	if out := r.write(t, expired, 1); out != nil || r.n.Stats().RunAcks != 0 {
		t.Fatalf("a write behind an expired reservation released %v", kindsOf(out))
	}
	if blk, _ := only[*wire.PutResponse](t, r.tick(t, expired+ms(500))); blk.Run || blk.BID != 0 || blk.Block.Len() != 2 {
		t.Fatalf("the flush released %+v, want block 0: the no-op and the write", blk)
	}
	promise, _ := only[*wire.PutResponse](t, r.write(t, expired+ms(501), 2))
	if !promise.Run || promise.BID != 1 || promise.Block.StartPos != 2 {
		t.Fatalf("write 2 got %+v, want the run ack of position 2 in block 1", promise)
	}
	if err := r.n.CloseStore(); err != nil {
		t.Fatal(err)
	}
	l, st, blocks, _, err := wlog.Recover(r.dir, "edge-1", 4, r.reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if e, ok := l.EntryAt(2); blocks != 1 || l.BufferLen() != 1 || !ok || !e.Equal(&promise.Block.Entries[0]) {
		t.Fatalf("recovered %d blocks and %d buffered, want block 0 and write 2 at position 2", blocks, l.BufferLen())
	}
}

// TestHeldRunsShareOneAck: the runs of one block held inside a window are
// released together by the sync past it, as one run ack signed once and
// sent to each of their writers, mirrored once.
func TestHeldRunsShareOneAck(t *testing.T) {
	r := newGCRig(t, 100, func(c *Config) { c.BatchSize, c.FlushEvery = 4, ms(10000) })
	defer r.n.CloseStore()
	c2 := wcrypto.DeterministicKey("c2")
	r.reg.Register("c2", c2.Pub)
	r.write(t, ms(1), 1) // the first sync: run acked in its own turn
	if out := r.durable(t, r.n.Receive(ms(2), put(c2, wire.Entry{Client: "c2", Seq: 1}))); out != nil {
		t.Fatalf("a run inside the window released %v", kindsOf(out))
	}
	if out := r.write(t, ms(3), 2); out != nil {
		t.Fatalf("a run inside the window released %v", kindsOf(out))
	}
	out := r.tick(t, ms(2000))
	if len(out) != 2 {
		t.Fatalf("the sync past the window released %v, want one run ack for each writer", kindsOf(out))
	}
	a, b := out[0].Msg.(*wire.PutResponse), out[1].Msg.(*wire.PutResponse)
	if a != b || !a.Run || a.Block.StartPos != 1 || len(a.Block.Entries) != 2 || out[0].To == out[1].To {
		t.Fatalf("released %+v to %s and %+v to %s, want one run of positions 1-2 to both writers", a, out[0].To, b, out[1].To)
	}
	if got := r.n.Stats().RunAcks; got != 2 {
		t.Fatalf("RunAcks = %d, want 2", got)
	}
}
