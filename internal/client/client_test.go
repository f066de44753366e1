package client

import (
	"bytes"
	"errors"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

type fixture struct {
	c    *Core
	keys map[wire.NodeID]wcrypto.KeyPair
	reg  *wcrypto.Registry
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
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

// entryOf extracts the signed entry from the envelopes an Add produced.
func entryOf(t *testing.T, envs []wire.Envelope) wire.Entry {
	t.Helper()
	if len(envs) != 1 {
		t.Fatalf("envelopes = %d", len(envs))
	}
	m, ok := envs[0].Msg.(*wire.PutRequest)
	if !ok {
		t.Fatalf("unexpected message %T", envs[0].Msg)
	}
	return m.Entry
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

func TestVerifyGetResponseL0Value(t *testing.T) {
	f := newFixture(t)
	e := wire.Entry{Client: "c1", Seq: 9, Key: []byte("k"), Value: []byte("v")}
	e.Sig = wcrypto.SignMsg(f.keys["c1"], &e)
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{e}}
	proof := f.signedProof(&blk)

	resp := &wire.GetResponse{
		ReqID: 1, Key: []byte("k"), Found: true, Value: []byte("v"), Ver: 1,
		Proof: wire.GetProof{L0Pruned: mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{*proof}}.Window(wire.PointRange([]byte("k")))},
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	if err := f.c.VerifyGetResponse(100, []byte("k"), resp); err != nil {
		t.Fatalf("honest get rejected: %v", err)
	}

	// Value contradicting L0 contents must fail.
	lied := *resp
	lied.Value = []byte("forged")
	lied.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], &lied)
	if err := f.c.VerifyGetResponse(100, []byte("k"), &lied); err == nil {
		t.Fatal("contradicting value accepted")
	}
}

func TestVerifyGetResponseRejectsNonConsecutiveL0(t *testing.T) {
	f := newFixture(t)
	b0 := wire.Block{Edge: "edge-1", ID: 0}
	b2 := wire.Block{Edge: "edge-1", ID: 2} // gap hides block 1
	resp := &wire.GetResponse{
		ReqID: 1,
		Proof: wire.GetProof{L0Pruned: mlsm.L0Source{
			Blocks: []wire.Block{b0, b2},
			Certs:  []wire.BlockProof{*f.signedProof(&b0), *f.signedProof(&b2)},
		}.Window(wire.PointRange([]byte("k")))},
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	if err := f.c.VerifyGetResponse(100, []byte("k"), resp); err == nil {
		t.Fatal("L0 gap accepted")
	}
}

func TestVerifyGetResponseRejectsForeignBlocks(t *testing.T) {
	f := newFixture(t)
	blk := wire.Block{Edge: "edge-other", ID: 0}
	resp := &wire.GetResponse{
		ReqID: 1,
		Proof: wire.GetProof{L0Pruned: mlsm.L0Source{Blocks: []wire.Block{blk}}.Window(wire.PointRange([]byte("k")))},
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	if err := f.c.VerifyGetResponse(100, []byte("k"), resp); err == nil {
		t.Fatal("foreign block accepted")
	}
}

func TestVerifyGetResponseUncertifiedIsPhaseI(t *testing.T) {
	f := newFixture(t)
	e := wire.Entry{Client: "c1", Seq: 9, Key: []byte("k"), Value: []byte("v")}
	e.Sig = wcrypto.SignMsg(f.keys["c1"], &e)
	blk := wire.Block{Edge: "edge-1", ID: 0, Entries: []wire.Entry{e}}

	op, _ := f.c.Get(10, []byte("k"))
	resp := &wire.GetResponse{
		ReqID: op.ReqID, Key: []byte("k"), Found: true, Value: []byte("v"), Ver: 1,
		Proof: wire.GetProof{L0Pruned: mlsm.L0Source{Blocks: []wire.Block{blk}}.Window(wire.PointRange([]byte("k")))},
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if op.Phase != core.PhaseI || op.Done {
		t.Fatalf("op = phase %v done %v", op.Phase, op.Done)
	}
	// The forwarded proof completes Phase II.
	f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedProof(&blk)})
	if op.Phase != core.PhaseII {
		t.Fatalf("op phase = %v after proof", op.Phase)
	}
	if !bytes.Equal(op.GotValue, []byte("v")) {
		t.Fatalf("value = %q", op.GotValue)
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
