package client

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

type fixture struct {
	c    *Core
	keys map[wire.NodeID]wcrypto.KeyPair
	reg  *wcrypto.Registry
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	keys, reg, _ := deploy.Keys(deploy.Topology{Clients: 1})
	c := New(Config{
		ID: "c1", Edge: "edge-1", Cloud: "cloud",
		ProofTimeout: 1000,
	}, keys["c1"], reg)
	return &fixture{c: c, keys: keys, reg: reg}
}

// blockWith packages the entries of write requests into a block.
func blockWith(bid uint64, entries ...wire.Entry) wire.Block {
	return wire.Block{Edge: "edge-1", ID: bid, StartPos: 0, Entries: entries}
}

// batchOf extracts the one write message from the envelopes a write
// produced: a PutBatch from c1 whose entries carry no signature.
func batchOf(t *testing.T, envs []wire.Envelope) *wire.PutBatch {
	t.Helper()
	if len(envs) != 1 {
		t.Fatalf("envelopes = %d", len(envs))
	}
	m, ok := envs[0].Msg.(*wire.PutBatch)
	if !ok {
		t.Fatalf("unexpected message %T", envs[0].Msg)
	}
	if m.Client != "c1" {
		t.Fatalf("batch authored by %q", m.Client)
	}
	for i := range m.Entries {
		if len(m.Entries[i].Sig) != 0 {
			t.Fatalf("entry %d carries a signature of its own", i)
		}
	}
	return m
}

// macVerifies reports whether b's MAC checks out at edge, which derives
// the key it shares with the batch's client from its own secret.
func (f *fixture) macVerifies(b *wire.PutBatch, edge wire.NodeID) bool {
	return wcrypto.VerifyMAC(f.reg, f.keys[edge], b.Client, edge, b, b.MAC) == nil
}

// entryOf extracts the entry from the batch of one an Add or Put produced.
func entryOf(t *testing.T, envs []wire.Envelope) wire.Entry {
	t.Helper()
	b := batchOf(t, envs)
	if len(b.Entries) != 1 {
		t.Fatalf("batch of %d entries, want 1", len(b.Entries))
	}
	return b.Entries[0]
}

func (f *fixture) signedAddResponse(blk wire.Block) *wire.PutResponse {
	resp := &wire.PutResponse{BID: blk.ID, Block: blk}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	return resp
}

func (f *fixture) signedProof(blk *wire.Block) *wire.BlockProof {
	p := &wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.BlockDigest(blk)}
	p.CloudSig = wcrypto.SignMsg(f.keys["cloud"], p)
	return p
}

func TestAddPhaseLifecycle(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Add(10, []byte("payload"))
	blk := blockWith(0, entryOf(t, envs))

	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedAddResponse(blk)})
	if op.Phase != core.PhaseI || op.BID != 0 {
		t.Fatalf("after response: phase=%v bid=%d", op.Phase, op.BID)
	}
	f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedProof(&blk)})
	if op.Phase != core.PhaseII || !op.Done || op.Err != nil {
		t.Fatalf("after proof: %+v", op)
	}
	if op.PhaseIAt != 20 || op.PhaseIIAt != 30 {
		t.Fatalf("timestamps = %d/%d", op.PhaseIAt, op.PhaseIIAt)
	}
}

func TestAddResponseBadSignatureIgnored(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Add(10, []byte("payload"))
	blk := blockWith(0, entryOf(t, envs))
	resp := f.signedAddResponse(blk)
	resp.EdgeSig[0] ^= 1
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if op.Phase != core.PhaseNone {
		t.Fatal("forged response advanced the op")
	}
	if f.c.Stats().VerifyFailures == 0 {
		t.Fatal("verify failure not counted")
	}
}

func TestAddResponseMisrepresentingEntryFailsOp(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Add(10, []byte("payload"))
	e := entryOf(t, envs)
	e.Value = []byte("swapped") // edge altered MY entry: detectable immediately
	blk := blockWith(0, e)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedAddResponse(blk)})
	if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
		t.Fatalf("op = %+v", op)
	}
}

func TestProofDigestMismatchFilesDispute(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Add(10, []byte("payload"))
	blk := blockWith(0, entryOf(t, envs))
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedAddResponse(blk)})

	// Cloud certified a different block for the same bid.
	other := blockWith(0, entryOf(t, mustEnvs(f.c.Add(11, []byte("other")))))
	out := f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedProof(&other)})
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want dispute", len(out))
	}
	d, ok := out[0].Msg.(*wire.Dispute)
	if !ok || d.Kind != wire.DisputeAddLie {
		t.Fatalf("output = %+v", out[0].Msg)
	}
	if out[0].To != "cloud" {
		t.Fatalf("dispute sent to %s", out[0].To)
	}
	if op.Done {
		t.Fatal("op settled before verdict")
	}

	// Guilty verdict settles the op with ErrEdgeLied.
	v := &wire.Verdict{Edge: "edge-1", BID: 0, Kind: wire.DisputeAddLie, Guilty: true, Reason: "lied"}
	v.CloudSig = wcrypto.SignMsg(f.keys["cloud"], v)
	f.c.Receive(40, wire.Envelope{From: "cloud", To: "c1", Msg: v})
	if !errors.Is(op.Err, ErrEdgeLied) || op.Verdict == nil {
		t.Fatalf("op = %+v", op)
	}
}

func mustEnvs(op *Op, envs []wire.Envelope) []wire.Envelope { return envs }

func TestTickFilesTimeoutDispute(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Add(10, []byte("payload"))
	blk := blockWith(0, entryOf(t, envs))
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedAddResponse(blk)})

	if out := f.c.Tick(500); out != nil {
		t.Fatal("dispute filed before timeout")
	}
	out := f.c.Tick(2000) // ProofTimeout is 1000
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	if _, ok := out[0].Msg.(*wire.Dispute); !ok {
		t.Fatalf("output = %T", out[0].Msg)
	}
	// No duplicate dispute on the next tick.
	if out := f.c.Tick(3000); out != nil {
		t.Fatal("dispute filed twice")
	}
	_ = op
}

func TestReadPhaseIICompletesInline(t *testing.T) {
	f := newFixture(t)
	op, _ := f.c.Read(10, 0)
	blk := blockWith(0)
	resp := &wire.ReadResponse{ReqID: op.ReqID, BID: 0, OK: true, Ts: 15, Block: blk,
		HasProof: true, Proof: *f.signedProof(&blk)}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if op.Phase != core.PhaseII || op.Block == nil {
		t.Fatalf("op = %+v", op)
	}
}

func TestReadDenialWithoutGossipSettlesUnavailable(t *testing.T) {
	f := newFixture(t)
	op, _ := f.c.Read(10, 5)
	resp := &wire.ReadResponse{ReqID: op.ReqID, BID: 5, OK: false, Ts: 15}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if !errors.Is(op.Err, ErrUnavailable) {
		t.Fatalf("op.Err = %v", op.Err)
	}
}

func TestReadDenialAgainstGossipDisputes(t *testing.T) {
	f := newFixture(t)
	g := &wire.Gossip{Edge: "edge-1", Ts: 12, LogSize: 10, Blocks: 2}
	g.CloudSig = wcrypto.SignMsg(f.keys["cloud"], g)
	f.c.Receive(13, wire.Envelope{From: "cloud", To: "c1", Msg: g})

	op, _ := f.c.Read(14, 1)
	denial := &wire.ReadResponse{ReqID: op.ReqID, BID: 1, OK: false, Ts: 15}
	denial.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], denial)
	out := f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: denial})
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	d, ok := out[0].Msg.(*wire.Dispute)
	if !ok || d.Kind != wire.DisputeOmission {
		t.Fatalf("output = %+v", out[0].Msg)
	}
}

func TestReadDenialPredatingGossipRetries(t *testing.T) {
	f := newFixture(t)
	g := &wire.Gossip{Edge: "edge-1", Ts: 100, LogSize: 10, Blocks: 2}
	g.CloudSig = wcrypto.SignMsg(f.keys["cloud"], g)
	f.c.Receive(101, wire.Envelope{From: "cloud", To: "c1", Msg: g})

	op, _ := f.c.Read(102, 1)
	denial := &wire.ReadResponse{ReqID: op.ReqID, BID: 1, OK: false, Ts: 50} // backdated
	denial.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], denial)
	out := f.c.Receive(110, wire.Envelope{From: "edge-1", To: "c1", Msg: denial})
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	if _, ok := out[0].Msg.(*wire.ReadRequest); !ok {
		t.Fatalf("output = %T, want retry ReadRequest", out[0].Msg)
	}
	if f.c.Stats().Retries != 1 {
		t.Fatalf("retries = %d", f.c.Stats().Retries)
	}
}

func TestGossipTracksNewest(t *testing.T) {
	f := newFixture(t)
	for _, ts := range []int64{100, 50, 200} {
		g := &wire.Gossip{Edge: "edge-1", Ts: ts, Blocks: uint64(ts)}
		g.CloudSig = wcrypto.SignMsg(f.keys["cloud"], g)
		f.c.Receive(ts+1, wire.Envelope{From: "cloud", To: "c1", Msg: g})
	}
	if f.c.Gossip().Ts != 200 {
		t.Fatalf("gossip ts = %d", f.c.Gossip().Ts)
	}
}

func TestGossipBadSignatureIgnored(t *testing.T) {
	f := newFixture(t)
	g := &wire.Gossip{Edge: "edge-1", Ts: 100, Blocks: 5}
	g.CloudSig = wcrypto.SignMsg(f.keys["edge-1"], g) // edge forging gossip
	f.c.Receive(101, wire.Envelope{From: "cloud", To: "c1", Msg: g})
	if f.c.Gossip() != nil {
		t.Fatal("forged gossip accepted")
	}
}

// TestPutWithoutEdgeKeyFailsAtOnce: a client whose registry holds no key
// for its edge cannot MAC a write, so it sends nothing and the put settles
// in the same call with ErrUnavailable naming the edge, instead of leaving
// as a batch the edge drops unanswered.
func TestPutWithoutEdgeKeyFailsAtOnce(t *testing.T) {
	k := wcrypto.DeterministicKey("c1")
	c := New(Config{ID: "c1", Edge: "edge-1", Cloud: "cloud"}, k, wcrypto.NewRegistry())
	op, envs := c.Put(1, []byte("k"), []byte("v"))
	if len(envs) != 0 || !op.Done || !errors.Is(op.Err, ErrUnavailable) || !strings.Contains(op.Err.Error(), "edge-1") || c.Pending() != 0 {
		t.Fatalf("sent %d envelopes, op done %v err %v, %d pending; want nothing sent and ErrUnavailable naming edge-1", len(envs), op.Done, op.Err, c.Pending())
	}
}

func TestPutBatchCreatesOnePerPair(t *testing.T) {
	f := newFixture(t)
	keys := [][]byte{[]byte("a"), []byte("b")}
	vals := [][]byte{[]byte("1"), []byte("2")}
	ops, envs := f.c.PutBatch(10, keys, vals)
	if len(ops) != 2 || len(envs) != 1 {
		t.Fatalf("ops=%d envs=%d", len(ops), len(envs))
	}
	batch := envs[0].Msg.(*wire.PutBatch)
	if len(batch.Entries) != 2 {
		t.Fatalf("batch entries = %d", len(batch.Entries))
	}
	// One signed response covering the whole block advances both ops.
	blk := blockWith(0, batch.Entries...)
	resp := &wire.PutResponse{BID: 0, Block: blk}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	for i, op := range ops {
		if op.Phase != core.PhaseI {
			t.Fatalf("op %d phase = %v", i, op.Phase)
		}
	}
}

// pointResponse is an edge-signed answer to a get of key: the scan of its
// point range, carrying the given evidence.
func (f *fixture) pointResponse(reqID uint64, key string, proof wire.ScanProof) *wire.ScanResponse {
	start, end := wire.PointRange([]byte(key))
	resp := &wire.ScanResponse{ReqID: reqID, Start: start, End: end, Proof: proof}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	return resp
}

// verifyGet runs the client's full verification of an answer to a get of
// key.
func (f *fixture) verifyGet(now int64, key string, m *wire.ScanResponse) error {
	start, end := wire.PointRange([]byte(key))
	return f.c.VerifyScanResponse(now, start, end, m)
}

func TestVerifyGetResponseL0Value(t *testing.T) {
	f := newFixture(t)
	e := wire.Entry{Client: "c1", Seq: 9, Key: []byte("k"), Value: []byte("v")}
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{e}}
	proof := f.signedProof(&blk)
	window := func() []wire.L0Slice {
		return mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{*proof}}.Window(wire.PointRange([]byte("k")))
	}

	if err := f.verifyGet(100, "k", f.pointResponse(1, "k", wire.ScanProof{L0Pruned: window()})); err != nil {
		t.Fatalf("honest get rejected: %v", err)
	}

	// A value contradicting the certified block must fail.
	lied := window()
	lied[0].Rows[0].Entry.Value = []byte("forged")
	if err := f.verifyGet(100, "k", f.pointResponse(1, "k", wire.ScanProof{L0Pruned: lied})); err == nil {
		t.Fatal("contradicting value accepted")
	}
}

func TestVerifyGetResponseRejectsNonConsecutiveL0(t *testing.T) {
	f := newFixture(t)
	b0 := wire.Block{Edge: "edge-1", ID: 0}
	b2 := wire.Block{Edge: "edge-1", ID: 2} // gap hides block 1
	window := mlsm.L0Source{
		Blocks: []wire.Block{b0, b2},
		Certs:  []wire.BlockProof{*f.signedProof(&b0), *f.signedProof(&b2)},
	}.Window(wire.PointRange([]byte("k")))
	if err := f.verifyGet(100, "k", f.pointResponse(1, "k", wire.ScanProof{L0Pruned: window})); err == nil {
		t.Fatal("L0 gap accepted")
	}
}

func TestVerifyGetResponseRejectsForeignBlocks(t *testing.T) {
	f := newFixture(t)
	blk := wire.Block{Edge: "edge-other", ID: 0}
	window := mlsm.L0Source{Blocks: []wire.Block{blk}}.Window(wire.PointRange([]byte("k")))
	if err := f.verifyGet(100, "k", f.pointResponse(1, "k", wire.ScanProof{L0Pruned: window})); err == nil {
		t.Fatal("foreign block accepted")
	}
}

func TestVerifyGetResponseUncertifiedIsPhaseI(t *testing.T) {
	f := newFixture(t)
	e := wire.Entry{Client: "c1", Seq: 9, Key: []byte("k"), Value: []byte("v")}
	blk := wire.Block{Edge: "edge-1", ID: 0, Entries: []wire.Entry{e}}

	op, _ := f.c.Get(10, []byte("k"))
	window := mlsm.L0Source{Blocks: []wire.Block{blk}}.Window(wire.PointRange([]byte("k")))
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.pointResponse(op.ReqID, "k", wire.ScanProof{L0Pruned: window})})
	if op.Phase != core.PhaseI || op.Done {
		t.Fatalf("op = phase %v done %v", op.Phase, op.Done)
	}
	// The forwarded proof completes Phase II.
	f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedProof(&blk)})
	if op.Phase != core.PhaseII {
		t.Fatalf("op phase = %v after proof", op.Phase)
	}
	if !op.Found || !bytes.Equal(op.GotValue, []byte("v")) || op.GotVer != 1 {
		t.Fatalf("answer = %v %q v%d", op.Found, op.GotValue, op.GotVer)
	}
}

// TestPhaseIBindsReservedPosition: an acknowledgement binds a write to the
// slot it was sent for. An AddAt acked at another slot, or with its Pos
// rewritten, and a plain Add acked with a Pos it never asked for, fail the
// op at Phase I; the AddAt acked at its reserved slot passes.
func TestPhaseIBindsReservedPosition(t *testing.T) {
	const reserved = 5
	for _, tc := range []struct {
		name     string
		at       bool   // AddAt(reserved) rather than Add
		startPos uint64 // the acked block's first position
		index    int    // the entry's index in the block
		pos      func(uint64) uint64
		ok       bool
	}{
		{"reserved slot", true, reserved - 1, 1, func(p uint64) uint64 { return p }, true},
		{"other slot", true, 0, 0, func(p uint64) uint64 { return p }, false},
		{"Pos rewritten", true, reserved, 0, func(uint64) uint64 { return 0 }, false},
		{"Pos added", false, reserved, 0, func(uint64) uint64 { return reserved + 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			op, envs := f.c.Add(10, []byte("payload"))
			if tc.at {
				op, envs = f.c.AddAt(10, []byte("payload"), reserved)
			}
			e := entryOf(t, envs)
			e.Pos = tc.pos(e.Pos)
			entries := make([]wire.Entry, tc.index+1)
			entries[tc.index] = e
			blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: tc.startPos, Entries: entries}
			f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedAddResponse(blk)})
			if tc.ok && (op.Phase != core.PhaseI || op.Done) {
				t.Fatalf("honest ack: phase %v done %v err %v", op.Phase, op.Done, op.Err)
			}
			if !tc.ok && (!op.Done || !errors.Is(op.Err, ErrBadResponse)) {
				t.Fatalf("misplaced write accepted: phase %v done %v err %v", op.Phase, op.Done, op.Err)
			}
		})
	}
}

func TestDuplicateSeqDistinctClientsIndependent(t *testing.T) {
	// Regression guard: ops are keyed by seq per client core; two
	// different cores never interact.
	f1, f2 := newFixture(t), newFixture(t)
	op1, _ := f1.c.Add(10, []byte("a"))
	op2, _ := f2.c.Add(10, []byte("b"))
	if op1.Seq != op2.Seq {
		t.Fatal("expected identical seqs on distinct cores")
	}
}

// TestSharedRunFindsMyEntry: a run ack can hold the runs of several
// writers, whose seqs repeat across them. The writer finds its own entry
// by its identity and seq, takes the block that holds it at the promised
// position without checking that block's signature, and reaches Phase II
// on the block's certificate, with no dispute.
func TestSharedRunFindsMyEntry(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Put(10, []byte("k"), []byte("v"))
	mine := entryOf(t, envs)
	other := wire.Entry{Client: "c2", Seq: mine.Seq, Key: []byte("k2"), Value: []byte("w")}
	run := &wire.PutResponse{BID: 0, Run: true, Block: wire.Block{Edge: "edge-1", ID: 0, StartPos: 5, Entries: []wire.Entry{other, mine}}}
	run.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], run)
	f.c.Receive(20, overTheWire(t, "edge-1", run))
	if op.Phase != core.PhaseI || op.BID != 0 {
		t.Fatalf("after the run ack: phase %v, block %d", op.Phase, op.BID)
	}
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 4, Entries: []wire.Entry{{Client: "c3", Seq: 9}, other, mine}}
	ack := &wire.PutResponse{BID: 0, Block: blk, EdgeSig: make([]byte, 64)} // not a valid signature: never checked
	f.c.Receive(30, overTheWire(t, "edge-1", ack))
	p := &wire.BlockProof{Edge: "edge-1", BID: 0, Digest: blk.BodyDigest()}
	p.CloudSig = wcrypto.SignMsg(f.keys["cloud"], p)
	f.c.Receive(40, overTheWire(t, "cloud", p))
	if op.Phase != core.PhaseII || op.Err != nil {
		t.Fatalf("after the certificate: phase %v, err %v", op.Phase, op.Err)
	}
	if st := f.c.Stats(); st.Disputes != 0 || st.VerifyFailures != 0 {
		t.Fatalf("stats %+v, want no dispute and no failed check", st)
	}
}

// TestRunBlockWithAlteredEntryIsDisputed: a block ack that holds the
// writer's seq at the promised position but not the entry it sent
// contradicts the run: once its signature checks out, the writer files
// both.
func TestRunBlockWithAlteredEntryIsDisputed(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Put(10, []byte("k"), []byte("v"))
	mine := entryOf(t, envs)
	run := &wire.PutResponse{BID: 0, Run: true, Block: wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{mine}}}
	run.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], run)
	f.c.Receive(20, overTheWire(t, "edge-1", run))
	altered := mine
	altered.Value = []byte("not v")
	blk := f.signedAddResponse(blockWith(0, altered))
	out := f.c.Receive(30, overTheWire(t, "edge-1", blk))
	if len(out) != 1 || f.c.Stats().Disputes != 1 {
		t.Fatalf("outputs %v, disputes %d; want one dispute", out, f.c.Stats().Disputes)
	}
	d, ok := out[0].Msg.(*wire.Dispute)
	if !ok || d.Kind != wire.DisputeAddLie || len(d.Evidence2) == 0 || op.Phase != core.PhaseI {
		t.Fatalf("filed %+v, op phase %v; want the run with the block as second evidence", out[0].Msg, op.Phase)
	}
}
