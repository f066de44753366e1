package client

import (
	"errors"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// pruneBlocks builds two certified single-entry blocks: block 0 writes
// "hidden", block 1 writes "other". Returns blocks and certs.
func pruneBlocks(f *fixture) ([]wire.Block, []wire.BlockProof) {
	var blocks []wire.Block
	var certs []wire.BlockProof
	for i, k := range []string{"hidden", "other"} {
		e := wire.Entry{Client: "c2", Seq: uint64(i + 1), Key: []byte(k), Value: []byte("v" + k)}
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: uint64(i), Entries: []wire.Entry{e}}
		blk.Freeze()
		cert := wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)
		blocks = append(blocks, blk)
		certs = append(certs, cert)
	}
	return blocks, certs
}

// deliverGet pushes one get response inline or through a VerifyPool.
func deliverGet(t *testing.T, f *fixture, pooled bool, m *wire.GetResponse) []wire.Envelope {
	t.Helper()
	env := wire.Envelope{From: "edge-1", To: "c1", Msg: m}
	if !pooled {
		return f.c.Receive(20, env)
	}
	var outs []wire.Envelope
	done := make(chan struct{})
	pool := wcrypto.NewVerifyPool(f.reg, 4, 4, func(e wire.Envelope) {
		outs = f.c.Receive(20, e)
		close(done)
	})
	pool.Submit(env)
	<-done
	pool.Close()
	return outs
}

// judgeWith adjudicates a dispute with the named block certified in the
// table, mirroring what the real cloud would hold.
func judgeWith(f *fixture, d *wire.Dispute, certified ...*wire.Block) wire.Verdict {
	certs := core.NewCertTable()
	for _, b := range certified {
		certs.Certify("edge-1", b.ID, wcrypto.RecomputedBlockDigest(b), 0)
	}
	return core.Judge(f.reg, certs, "cloud", "c1", d)
}

// TestGetHonestPruningVerifies pins the honest pruned get end to end,
// inline and pooled: the edge prunes the irrelevant block, the client
// verifies the exclusion and settles with the right answer.
func TestGetHonestPruningVerifies(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("other"))
		req := envs[0].Msg.(*wire.GetRequest)
		resp, _ := mlsm.AssembleGet(req.Key, req.ReqID, mlsm.L0Source{Blocks: blocks, Certs: certs},
			mlsm.NewIndex([]int{10}), true)
		if len(resp.Proof.L0Pruned) != 1 || resp.Proof.L0Pruned[0].ID != 0 {
			t.Fatalf("pooled=%v: block 0 not pruned: %+v", pooled, resp.Proof)
		}
		if len(resp.Proof.L0Blocks) != 1 {
			t.Fatalf("pooled=%v: block 1 should ship full", pooled)
		}
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		deliverGet(t, f, pooled, resp)
		if !op.Done || op.Err != nil || !op.Found || string(op.GotValue) != "vother" {
			t.Fatalf("pooled=%v: honest pruned get rejected: %+v err=%v", pooled, op, op.Err)
		}
		if op.Phase != core.PhaseII {
			t.Fatalf("pooled=%v: phase = %v", pooled, op.Phase)
		}
	}
}

// TestGetFalseExclusionConvictsInlineAndPooled: the edge hides the block
// holding the requested key behind its honest (digest-bound) summary.
// The exclusion-soundness check refutes it inline, the signed response
// is filed, and the Judge — holding the certified digests — convicts.
func TestGetFalseExclusionConvictsInlineAndPooled(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("hidden"))
		req := envs[0].Msg.(*wire.GetRequest)
		// The lie: prune block 0 (which holds "hidden") with its honest
		// summary and claim the key does not exist.
		resp := &wire.GetResponse{ReqID: req.ReqID, Key: req.Key}
		resp.Proof.L0Blocks = blocks[1:]
		resp.Proof.L0Certs = certs[1:]
		resp.Proof.L0Pruned = []wire.PrunedBlock{wire.PruneBlock(&blocks[0])}
		resp.Proof.L0PrunedCerts = certs[:1]
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

		outs := deliverGet(t, f, pooled, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("pooled=%v: false exclusion not rejected: %+v err=%v", pooled, op, op.Err)
		}
		st := f.c.Stats()
		if st.VerifyFailures == 0 || st.LiesDetected == 0 || st.Disputes != 1 {
			t.Fatalf("pooled=%v: stats = %+v", pooled, st)
		}
		if len(outs) != 1 || outs[0].To != "cloud" {
			t.Fatalf("pooled=%v: dispute not sent to cloud: %v", pooled, outs)
		}
		d, ok := outs[0].Msg.(*wire.Dispute)
		if !ok || d.Kind != wire.DisputeGetLie {
			t.Fatalf("pooled=%v: wrong dispute: %+v", pooled, outs[0].Msg)
		}
		verdict := judgeWith(f, d, &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("pooled=%v: judge acquitted: %s", pooled, verdict.Reason)
		}
	}
}

// TestGetTamperedSummaryConvictsInlineAndPooled: the edge doctors the
// pruned summary so the key looks excluded. The claimed digest then
// contradicts the shipped certificate — detected inline, convicted by
// the Judge re-running the same binding check.
func TestGetTamperedSummaryConvictsInlineAndPooled(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("hidden"))
		req := envs[0].Msg.(*wire.GetRequest)
		pb := wire.PruneBlock(&blocks[0])
		pb.Summary = wire.BlockSummary{} // "writes no keys at all"
		resp := &wire.GetResponse{ReqID: req.ReqID, Key: req.Key}
		resp.Proof.L0Blocks = blocks[1:]
		resp.Proof.L0Certs = certs[1:]
		resp.Proof.L0Pruned = []wire.PrunedBlock{pb}
		resp.Proof.L0PrunedCerts = certs[:1]
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

		outs := deliverGet(t, f, pooled, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("pooled=%v: tampered summary not rejected: %+v err=%v", pooled, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("pooled=%v: no dispute filed", pooled)
		}
		d := outs[0].Msg.(*wire.Dispute)
		verdict := judgeWith(f, d, &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("pooled=%v: judge acquitted: %s", pooled, verdict.Reason)
		}
	}
}

// TestGetTamperedUncertifiedSummaryPinsAndConvicts: with no certificate
// to bind against, a tampered pruned summary passes structural checks but
// pins its claimed digest; the honest block proof contradicts the pin,
// the dispute names the block, and the Judge convicts against the
// certification table.
func TestGetTamperedUncertifiedSummaryPinsAndConvicts(t *testing.T) {
	f := newFixture(t)
	blocks, _ := pruneBlocks(f)
	op, envs := f.c.Get(10, []byte("hidden"))
	req := envs[0].Msg.(*wire.GetRequest)
	pb := wire.PruneBlock(&blocks[0])
	pb.Summary = wire.BlockSummary{}
	resp := &wire.GetResponse{ReqID: req.ReqID, Key: req.Key}
	resp.Proof.L0Blocks = blocks[1:]
	resp.Proof.L0Certs = []wire.BlockProof{{}} // block 1 uncertified too
	resp.Proof.L0Pruned = []wire.PrunedBlock{pb}
	resp.Proof.L0PrunedCerts = []wire.BlockProof{{}}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

	deliverGet(t, f, false, resp)
	if op.Done || op.Phase != core.PhaseI {
		t.Fatalf("uncertified tampered summary should park in Phase I: %+v", op)
	}
	// The honest proof for block 0 contradicts the pinned claimed digest.
	outs := f.c.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&blocks[0])})
	if len(outs) != 1 {
		t.Fatalf("proof contradiction filed no dispute: %v", outs)
	}
	d, ok := outs[0].Msg.(*wire.Dispute)
	if !ok || d.Kind != wire.DisputeGetLie || d.BID != 0 {
		t.Fatalf("wrong dispute: %+v", outs[0].Msg)
	}
	verdict := judgeWith(f, d, &blocks[0], &blocks[1])
	if !verdict.Guilty {
		t.Fatalf("judge acquitted: %s", verdict.Reason)
	}
}

// TestScanFalseExclusionConvictsInlineAndPooled mirrors the get case on
// the scan path: a pruned block whose honest summary overlaps the
// scanned range is an unsound prune, detected and convicted.
func TestScanFalseExclusionConvictsInlineAndPooled(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("h"), []byte("p")) // covers "hidden" and "other"
		blocks, certs := pruneBlocks(f.fixture)
		resp, _ := scan.Assemble(req.Start, req.End, req.ReqID,
			mlsm.L0Source{Blocks: blocks[1:], Certs: certs[1:]}, f.idx)
		resp.Proof.L0Pruned = []wire.PrunedBlock{wire.PruneBlock(&blocks[0])}
		resp.Proof.L0PrunedCerts = certs[:1]
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

		outs := f.deliver(t, pooled, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("pooled=%v: false scan exclusion not rejected: %+v err=%v", pooled, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("pooled=%v: no dispute filed", pooled)
		}
		d := outs[0].Msg.(*wire.Dispute)
		if d.Kind != wire.DisputeScanLie {
			t.Fatalf("pooled=%v: wrong dispute kind %v", pooled, d.Kind)
		}
		certTable := core.NewCertTable()
		for i := range blocks {
			certTable.Certify("edge-1", blocks[i].ID, wcrypto.RecomputedBlockDigest(&blocks[i]), 0)
		}
		verdict := core.Judge(f.reg, certTable, "cloud", "c1", d)
		if !verdict.Guilty {
			t.Fatalf("pooled=%v: judge acquitted: %s", pooled, verdict.Reason)
		}
	}
}

// TestScanTamperedSummaryConvictsInlineAndPooled: the scan twin of the
// tampered-summary get — the doctored summary breaks the cert binding.
func TestScanTamperedSummaryConvictsInlineAndPooled(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("h"), []byte("p"))
		blocks, certs := pruneBlocks(f.fixture)
		pb := wire.PruneBlock(&blocks[0])
		pb.Summary = wire.BlockSummary{}
		resp, _ := scan.Assemble(req.Start, req.End, req.ReqID,
			mlsm.L0Source{Blocks: blocks[1:], Certs: certs[1:]}, f.idx)
		resp.Proof.L0Pruned = []wire.PrunedBlock{pb}
		resp.Proof.L0PrunedCerts = certs[:1]
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

		outs := f.deliver(t, pooled, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("pooled=%v: tampered scan summary not rejected: %+v err=%v", pooled, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("pooled=%v: no dispute filed", pooled)
		}
		verdict := judgeWith(f.fixture, outs[0].Msg.(*wire.Dispute), &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("pooled=%v: judge acquitted: %s", pooled, verdict.Reason)
		}
	}
}

// TestGetProofTimeoutDisputesPendingBid: a get stranded in Phase I past
// the proof timeout must accuse the block it is actually waiting on —
// not op.BID, which gets never set — so the Judge finds the bid in the
// evidence and can convict the certification-dropping edge.
func TestGetProofTimeoutDisputesPendingBid(t *testing.T) {
	f := newFixture(t)
	e := wire.Entry{Client: "c2", Seq: 1, Key: []byte("hidden"), Value: []byte("v")}
	blk := wire.Block{Edge: "edge-1", ID: 5, StartPos: 5, Entries: []wire.Entry{e}}
	blk.Freeze()
	// A signed index state whose compaction frontier starts the window at
	// block 5, so the pending bid is distinguishable from the zero value.
	pages := mlsm.Merge([]wire.KV{{Key: []byte("aaa"), Value: []byte("w"), Ver: 1}}, nil, 1, 4, 0, 5)
	roots := [][]byte{mlsm.LevelTree(pages).Root()}
	global := wire.SignedRoot{Edge: "edge-1", Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 5, L0From: 5}
	global.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &global)
	idx := mlsm.NewIndex([]int{10})
	if err := idx.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}

	op, envs := f.c.Get(10, []byte("hidden"))
	req := envs[0].Msg.(*wire.GetRequest)
	resp, _ := mlsm.AssembleGet(req.Key, req.ReqID,
		mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{{}}}, idx, true)
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	deliverGet(t, f, false, resp)
	if op.Done || op.Phase != core.PhaseI {
		t.Fatalf("get not parked in Phase I: %+v err=%v", op, op.Err)
	}
	outs := f.c.Tick(20 + f.c.cfg.ProofTimeout + 1) // past PhaseIAt (20) + timeout
	if len(outs) != 1 {
		t.Fatalf("timeout filed %d disputes", len(outs))
	}
	d := outs[0].Msg.(*wire.Dispute)
	if d.Kind != wire.DisputeGetLie || d.BID != 5 {
		t.Fatalf("dispute names bid %d, want 5", d.BID)
	}
	// The Judge never saw block 5 certified: promised-but-never-certified.
	verdict := core.Judge(f.reg, core.NewCertTable(), "cloud", "c1", d)
	if !verdict.Guilty {
		t.Fatalf("judge acquitted: %s", verdict.Reason)
	}
}

// TestGetVerdictAttachesToSettledDispute pins the reporting path the CLI
// relies on: a structural-defect dispute settles the op immediately, and
// the verdict arriving later is still attached to the op.
func TestGetVerdictAttachesToSettledDispute(t *testing.T) {
	f := newFixture(t)
	blocks, certs := pruneBlocks(f)
	op, envs := f.c.Get(10, []byte("hidden"))
	req := envs[0].Msg.(*wire.GetRequest)
	resp := &wire.GetResponse{ReqID: req.ReqID, Key: req.Key}
	resp.Proof.L0Blocks = blocks[1:]
	resp.Proof.L0Certs = certs[1:]
	resp.Proof.L0Pruned = []wire.PrunedBlock{wire.PruneBlock(&blocks[0])}
	resp.Proof.L0PrunedCerts = certs[:1]
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	outs := deliverGet(t, f, false, resp)
	if !op.Done || !op.DisputeFiled() || op.Verdict != nil {
		t.Fatalf("setup: %+v", op)
	}
	d := outs[0].Msg.(*wire.Dispute)
	v := judgeWith(f, d, &blocks[0], &blocks[1])
	v.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &v)
	f.c.Receive(40, wire.Envelope{From: "cloud", To: "c1", Msg: &v})
	if op.Verdict == nil || !op.Verdict.Guilty {
		t.Fatalf("verdict not attached to settled disputed op: %+v", op.Verdict)
	}
}
