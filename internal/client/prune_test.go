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

// pruneBlocks builds two certified blocks: block 0 writes "hidden" twice
// around "apple" and a log entry, block 1 writes "other" and "zoo".
// Returns blocks and certs.
func pruneBlocks(f *fixture) ([]wire.Block, []wire.BlockProof) {
	put := func(seq int, k, v string) wire.Entry {
		return wire.Entry{Client: "c2", Seq: uint64(seq), Key: []byte(k), Value: []byte(v)}
	}
	var blocks []wire.Block
	var certs []wire.BlockProof
	pos := uint64(0)
	for i, entries := range [][]wire.Entry{
		{put(1, "hidden", "vold"), put(2, "apple", "a"), {Client: "c2", Seq: 3, Value: []byte("log")}, put(4, "hidden", "vhidden")},
		{put(5, "other", "vother"), put(6, "zoo", "z")},
	} {
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: pos, Entries: entries}
		pos += uint64(len(entries))
		blk.Freeze()
		cert := wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)
		blocks = append(blocks, blk)
		certs = append(certs, cert)
	}
	return blocks, certs
}

// deliverGet pushes one get response to the client, as the sender built
// it or, framed, re-decoded as a TCP peer receives it.
func deliverGet(t *testing.T, f *fixture, framed bool, m *wire.ScanResponse) []wire.Envelope {
	t.Helper()
	return f.c.Receive(20, deliverable(t, framed, m))
}

// deliverable is the envelope the client receives for msg from edge-1:
// the message itself, or a framed copy with nothing cached by the sender.
// Tests named ...AndPooled run both legs; their second leg once went
// through a parallel verification stage.
func deliverable(t *testing.T, framed bool, msg wire.Message) wire.Envelope {
	t.Helper()
	if framed {
		return overTheWire(t, "edge-1", msg)
	}
	return wire.Envelope{From: "edge-1", To: "c1", Msg: msg}
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

// getOver assembles the edge's answer to a get (the scan of its point
// range) over the given window and lets lie, if any, rework the window
// before the edge signs.
func getOver(f *fixture, req *wire.ScanRequest, blocks []wire.Block, certs []wire.BlockProof, lie func([]wire.L0Slice) []wire.L0Slice) *wire.ScanResponse {
	resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{Blocks: blocks, Certs: certs}, mlsm.NewIndex([]int{10}))
	if lie != nil {
		resp.Proof.L0Pruned = lie(resp.Proof.L0Pruned)
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	return resp
}

// stopShort replaces the slice of blk in window with the honest slice of
// the range [start, key): it folds to the block's digest and says nothing
// of key.
func stopShort(window []wire.L0Slice, blk *wire.Block, start []byte, key string) []wire.L0Slice {
	i := int(blk.ID - window[0].ID)
	sig := window[i].CertSig
	window[i] = blk.Slice(start, []byte(key))
	window[i].CertSig = sig
	return window
}

// doctored replaces the slice of blk in window with one cut for [start,
// end) out of a copy of the block that never held key.
func doctored(window []wire.L0Slice, blk *wire.Block, start, end []byte, key string) []wire.L0Slice {
	cp := *blk
	cp.Invalidate()
	cp.Entries = nil
	for _, e := range blk.Entries {
		if string(e.Key) != key {
			cp.Entries = append(cp.Entries, e)
		}
	}
	i := int(blk.ID - window[0].ID)
	sig := window[i].CertSig
	window[i] = cp.Slice(start, end)
	window[i].CertSig = sig
	return window
}

// TestGetHonestPruningVerifies pins the honest sliced get end to end,
// as built and framed: the block without the key answers with a bracketing
// pair, the client verifies it and settles with the right answer.
func TestGetHonestPruningVerifies(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("other"))
		resp := getOver(f, envs[0].Msg.(*wire.ScanRequest), blocks, certs, nil)
		w := resp.Proof.L0Pruned
		if len(w) != 2 || len(w[0].Rows) != 0 || w[0].Left == nil || w[0].Right != nil {
			t.Fatalf("framed=%v: block 0 should answer with its last leaf only: %+v", framed, w[0])
		}
		if len(w[1].Rows) != 1 || w[1].Left != nil || w[1].Right == nil || len(w[1].Right.Hash) != 32 {
			t.Fatalf("framed=%v: block 1 should ship the row and one flank: %+v", framed, w[1])
		}
		deliverGet(t, f, framed, resp)
		if !op.Done || op.Err != nil || !op.Found || string(op.GotValue) != "vother" {
			t.Fatalf("framed=%v: honest sliced get rejected: %+v err=%v", framed, op, op.Err)
		}
		if op.Phase != core.PhaseII {
			t.Fatalf("framed=%v: phase = %v", framed, op.Phase)
		}
	}
}

// TestGetFalseExclusionConvictsInlineAndPooled: the edge hides the block
// holding the requested key behind an honest (digest-bound) slice that
// stops short of it. The bracket check refutes it inline, the signed
// response is filed, and the Judge — holding the certified digests —
// convicts.
func TestGetFalseExclusionConvictsInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("hidden"))
		req := envs[0].Msg.(*wire.ScanRequest)
		// The lie: block 0 (which holds "hidden") answers for the range
		// below the key, and the edge claims the key does not exist.
		resp := getOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
			return stopShort(w, &blocks[0], req.Start, "hidden")
		})
		if _, found := scan.PointAnswer(resp); found {
			t.Fatalf("framed=%v: the lie still shows the key", framed)
		}

		outs := deliverGet(t, f, framed, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("framed=%v: false exclusion not rejected: %+v err=%v", framed, op, op.Err)
		}
		st := f.c.Stats()
		if st.VerifyFailures == 0 || st.LiesDetected == 0 || st.Disputes != 1 {
			t.Fatalf("framed=%v: stats = %+v", framed, st)
		}
		if len(outs) != 1 || outs[0].To != "cloud" {
			t.Fatalf("framed=%v: dispute not sent to cloud: %v", framed, outs)
		}
		d, ok := outs[0].Msg.(*wire.Dispute)
		if !ok || d.Kind != wire.DisputeScanLie {
			t.Fatalf("framed=%v: wrong dispute: %+v", framed, outs[0].Msg)
		}
		verdict := judgeWith(f, d, &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("framed=%v: judge acquitted: %s", framed, verdict.Reason)
		}
	}
}

// TestGetTamperedSummaryConvictsInlineAndPooled: the edge cuts the slice
// out of a doctored block so the key looks absent. The digest it folds to
// then contradicts the shipped certificate — detected inline, convicted
// by the Judge re-running the same binding check.
func TestGetTamperedSummaryConvictsInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newFixture(t)
		blocks, certs := pruneBlocks(f)
		op, envs := f.c.Get(10, []byte("hidden"))
		req := envs[0].Msg.(*wire.ScanRequest)
		resp := getOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
			return doctored(w, &blocks[0], req.Start, req.End, "hidden")
		})

		outs := deliverGet(t, f, framed, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("framed=%v: doctored slice not rejected: %+v err=%v", framed, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("framed=%v: no dispute filed", framed)
		}
		d := outs[0].Msg.(*wire.Dispute)
		verdict := judgeWith(f, d, &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("framed=%v: judge acquitted: %s", framed, verdict.Reason)
		}
	}
}

// TestGetTamperedUncertifiedSummaryPinsAndConvicts: with no certificate
// to bind against, a slice of a doctored block passes structural checks
// but pins the digest it folds to; the honest block proof contradicts the
// pin, the dispute names the block, and the Judge convicts against the
// certification table.
func TestGetTamperedUncertifiedSummaryPinsAndConvicts(t *testing.T) {
	f := newFixture(t)
	blocks, _ := pruneBlocks(f)
	op, envs := f.c.Get(10, []byte("hidden"))
	req := envs[0].Msg.(*wire.ScanRequest)
	resp := getOver(f, req, blocks, nil, func(w []wire.L0Slice) []wire.L0Slice {
		return doctored(w, &blocks[0], req.Start, req.End, "hidden")
	})

	deliverGet(t, f, false, resp)
	if op.Done || op.Phase != core.PhaseI {
		t.Fatalf("uncertified doctored slice should park in Phase I: %+v", op)
	}
	// The honest proof for block 0 contradicts the pinned digest.
	outs := f.c.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&blocks[0])})
	if len(outs) != 1 {
		t.Fatalf("proof contradiction filed no dispute: %v", outs)
	}
	d, ok := outs[0].Msg.(*wire.Dispute)
	if !ok || d.Kind != wire.DisputeScanLie || d.BID != 0 {
		t.Fatalf("wrong dispute: %+v", outs[0].Msg)
	}
	verdict := judgeWith(f, d, &blocks[0], &blocks[1])
	if !verdict.Guilty {
		t.Fatalf("judge acquitted: %s", verdict.Reason)
	}
}

// scanOver is getOver for a scan against the fixture's merged index.
func scanOver(f *scanFixture, req *wire.ScanRequest, blocks []wire.Block, certs []wire.BlockProof, lie func([]wire.L0Slice) []wire.L0Slice) *wire.ScanResponse {
	resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{Blocks: blocks, Certs: certs}, f.idx)
	if lie != nil {
		resp.Proof.L0Pruned = lie(resp.Proof.L0Pruned)
	}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	return resp
}

// TestScanFalseExclusionConvictsInlineAndPooled mirrors the get case on
// the scan path: a slice that stops short of a key inside the scanned
// range does not bracket it, detected and convicted.
func TestScanFalseExclusionConvictsInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("h"), []byte("p")) // covers "hidden" and "other"
		blocks, certs := pruneBlocks(f.fixture)
		resp := scanOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
			return stopShort(w, &blocks[0], req.Start, "hidden")
		})

		outs := f.deliver(t, framed, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("framed=%v: false scan exclusion not rejected: %+v err=%v", framed, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("framed=%v: no dispute filed", framed)
		}
		d := outs[0].Msg.(*wire.Dispute)
		if d.Kind != wire.DisputeScanLie {
			t.Fatalf("framed=%v: wrong dispute kind %v", framed, d.Kind)
		}
		verdict := judgeWith(f.fixture, d, &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("framed=%v: judge acquitted: %s", framed, verdict.Reason)
		}
	}
}

// TestScanTamperedSummaryConvictsInlineAndPooled: the scan twin of the
// doctored-block get — the slice folds to a digest the certificate does
// not name.
func TestScanTamperedSummaryConvictsInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("h"), []byte("p"))
		blocks, certs := pruneBlocks(f.fixture)
		resp := scanOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
			return doctored(w, &blocks[0], req.Start, req.End, "hidden")
		})

		outs := f.deliver(t, framed, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("framed=%v: doctored scan slice not rejected: %+v err=%v", framed, op, op.Err)
		}
		if len(outs) != 1 {
			t.Fatalf("framed=%v: no dispute filed", framed)
		}
		verdict := judgeWith(f.fixture, outs[0].Msg.(*wire.Dispute), &blocks[0], &blocks[1])
		if !verdict.Guilty {
			t.Fatalf("framed=%v: judge acquitted: %s", framed, verdict.Reason)
		}
	}
}

// TestL0SliceLiesConvict is the adversarial matrix: every way of lying
// with a slice, as a get and as a scan, over certified and over
// uncertified blocks. Certified, the client refuses the response, files
// it, and the Judge convicts. Uncertified, the lie either fails the same
// way or — where only a certificate could tell — parks the read in Phase
// I on a pinned digest that the honest block proof then contradicts; the
// dispute names the block and the Judge convicts.
func TestL0SliceLiesConvict(t *testing.T) {
	var blocks []wire.Block // set per run; the lies close over it
	elsewhere := wire.Entry{Client: "c9", Seq: 1, Key: []byte("hidden"), Value: []byte("from another block")}
	lies := []struct {
		name string
		lie  func(w []wire.L0Slice, start, end []byte) []wire.L0Slice
	}{
		{"omitted in-range row", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Rows = w[0].Rows[:1] // the older version only
			return w
		}},
		{"omitted row, count adjusted", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Rows = w[0].Rows[:1]
			w[0].Count--
			return w
		}},
		{"row from another block", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Rows[1].Entry = elsewhere
			return w
		}},
		{"forged value under an honest key", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Rows[1].Entry.Value = []byte("forged")
			return w
		}},
		{"flank that does not bracket", func(w []wire.L0Slice, start, _ []byte) []wire.L0Slice {
			return stopShort(w, &blocks[0], start, "hidden")
		}},
		{"slice of a doctored block", func(w []wire.L0Slice, start, end []byte) []wire.L0Slice {
			return doctored(w, &blocks[0], start, end, "hidden")
		}},
		{"forged flank", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			f := *w[0].Left
			f.Hash = append([]byte(nil), f.Hash...)
			f.Hash[0] ^= 1
			w[0].Left = &f
			return w
		}},
		{"shifted begin", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Begin++
			return w
		}},
		{"index at count", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Rows[1].Index = w[0].Count
			return w
		}},
		{"wrong count", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			w[0].Count++
			return w
		}},
		{"duplicate position", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			return append(w[:1:1], w[0], w[1])
		}},
		{"stale window", func(w []wire.L0Slice, _, _ []byte) []wire.L0Slice {
			return w[1:] // the block holding the key is no longer served
		}},
	}
	for _, l := range lies {
		for _, kind := range []string{"get", "scan"} {
			for _, certified := range []bool{true, false} {
				name := l.name + "/" + kind + "/uncertified"
				if certified {
					name = l.name + "/" + kind + "/certified"
				}
				t.Run(name, func(t *testing.T) {
					f := newScanFixture(t)
					var certs []wire.BlockProof
					blocks, certs = pruneBlocks(f.fixture)
					if !certified {
						certs = nil
					}
					var op *Op
					var msg wire.Message
					if kind == "get" {
						var envs []wire.Envelope
						op, envs = f.c.Get(10, []byte("hidden"))
						req := envs[0].Msg.(*wire.ScanRequest)
						msg = getOver(f.fixture, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice { return l.lie(w, req.Start, req.End) })
					} else {
						var req *wire.ScanRequest
						op, req = f.launchScan(t, []byte("h"), []byte("i")) // "hidden" only
						msg = scanOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice { return l.lie(w, req.Start, req.End) })
					}
					outs := f.deliver(t, false, msg)
					if len(outs) == 0 {
						// Nothing to refute it with yet: the read must be
						// waiting on the blocks' certificates, and the
						// honest ones must bring the lie out.
						if certified || op.Done || op.Phase != core.PhaseI {
							t.Fatalf("lie accepted: done=%v phase=%v err=%v", op.Done, op.Phase, op.Err)
						}
						for i := range blocks {
							outs = append(outs, f.c.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.signedProof(&blocks[i])})...)
						}
					} else if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
						t.Fatalf("lie disputed but not refused: done=%v err=%v", op.Done, op.Err)
					}
					if len(outs) != 1 {
						t.Fatalf("%d disputes filed", len(outs))
					}
					d, ok := outs[0].Msg.(*wire.Dispute)
					if !ok || outs[0].To != "cloud" {
						t.Fatalf("not a dispute to the cloud: %+v", outs[0])
					}
					if v := judgeWith(f.fixture, d, &blocks[0], &blocks[1]); !v.Guilty {
						t.Fatalf("judge acquitted: %s", v.Reason)
					}
				})
			}
		}
	}

	// The same window, honest, convicts nobody: a dispute over it is thrown
	// out with the evidence matching what was certified.
	f := newScanFixture(t)
	blocks, certs := pruneBlocks(f.fixture)
	_, envs := f.c.Get(10, []byte("hidden"))
	resp := getOver(f.fixture, envs[0].Msg.(*wire.ScanRequest), blocks, certs, nil)
	d := core.BuildScanLieDispute(f.keys["c1"], "edge-1", 0, resp)
	if v := judgeWith(f.fixture, d, &blocks[0], &blocks[1]); v.Guilty {
		t.Fatalf("honest window convicted: %s", v.Reason)
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
	req := envs[0].Msg.(*wire.ScanRequest)
	resp := scan.Assemble(req.Start, req.End, req.ReqID,
		mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{{}}}, idx)
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
	if d.Kind != wire.DisputeScanLie || d.BID != 5 {
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
	req := envs[0].Msg.(*wire.ScanRequest)
	resp := getOver(f, req, blocks, certs, func(w []wire.L0Slice) []wire.L0Slice {
		return stopShort(w, &blocks[0], req.Start, "hidden")
	})
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
