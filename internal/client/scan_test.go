package client

import (
	"errors"
	"fmt"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// scanFixture extends the client fixture with a merged single-level index
// (8 keys in 2-record pages) under a cloud-signed root, so honest scan
// responses can be assembled and tampered locally.
type scanFixture struct {
	*fixture
	idx *mlsm.Index
}

func newScanFixture(t *testing.T) *scanFixture { return newIndexFixture(t, 8, 2) }

// newIndexFixture is newScanFixture with n keys k00, k01, … in pages of
// pageCap records.
func newIndexFixture(t *testing.T, n, pageCap int) *scanFixture {
	t.Helper()
	f := newFixture(t)
	var kvs []wire.KV
	for i := 0; i < n; i++ {
		kvs = append(kvs, wire.KV{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i)), Ver: uint64(i + 1)})
	}
	pages := mlsm.Merge(kvs, nil, 1, pageCap, 0, 50)
	idx := mlsm.NewIndex([]int{10, 100})
	roots := [][]byte{mlsm.LevelTree(pages).Root(), mlsm.LevelTree(nil).Root()}
	global := wire.SignedRoot{Edge: "edge-1", Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 5}
	global.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &global)
	if err := idx.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}
	return &scanFixture{fixture: f, idx: idx}
}

// launchScan starts a scan op and returns it with the request it emitted.
func (f *scanFixture) launchScan(t *testing.T, start, end []byte) (*Op, *wire.ScanRequest) {
	t.Helper()
	op, envs := f.c.Scan(10, start, end, 0)
	if len(envs) != 1 {
		t.Fatalf("scan emitted %d envelopes", len(envs))
	}
	return op, envs[0].Msg.(*wire.ScanRequest)
}

// honestScanResponse assembles and signs the edge's answer to req.
func (f *scanFixture) honestScanResponse(req *wire.ScanRequest) *wire.ScanResponse {
	resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{}, f.idx)
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	return resp
}

// deliver pushes one envelope to the client, as built or framed (see
// deliverable), returning what the client sent in response.
func (f *scanFixture) deliver(t *testing.T, framed bool, msg wire.Message) []wire.Envelope {
	t.Helper()
	return f.c.Receive(20, deliverable(t, framed, msg))
}

// TestScanVerifiedInlineAndPooled pins the honest path as built and
// framed: the derived result is complete and ordered, and the op
// reaches Phase II with no uncertified dependencies.
func TestScanVerifiedInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("k02"), []byte("k06"))
		f.deliver(t, framed, f.honestScanResponse(req))
		if !op.Done || op.Err != nil || op.Phase != core.PhaseII {
			t.Fatalf("framed=%v: op did not settle cleanly: %+v", framed, op)
		}
		if len(op.ScanKVs) != 4 || string(op.ScanKVs[0].Key) != "k02" || string(op.ScanKVs[3].Key) != "k05" {
			t.Fatalf("framed=%v: result = %v", framed, op.ScanKVs)
		}
	}
}

// TestScanOmissionParityAndConviction drives a mid-range omission as
// built and framed: both must reject identically, file the
// signed response as dispute evidence, and that evidence must convict the
// edge when adjudicated by the cloud's own Judge.
func TestScanOmissionParityAndConviction(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newScanFixture(t)
		op, req := f.launchScan(t, []byte("k01"), []byte("k07"))
		resp := f.honestScanResponse(req)
		// Omit one record mid-range, then re-sign: the lie must pass the
		// signature check and fail only the completeness proof.
		p := &resp.Proof.Levels[0].Pages[1]
		p.KVs = append([]wire.KV(nil), p.KVs[:1]...)
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)

		outs := f.deliver(t, framed, resp)
		if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
			t.Fatalf("framed=%v: omission not rejected: %+v", framed, op)
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
		verdict := core.Judge(f.reg, core.NewCertTable(), "cloud", "c1", d)
		if !verdict.Guilty {
			t.Fatalf("framed=%v: judge acquitted: %s", framed, verdict.Reason)
		}
	}
}

// TestScanWrongRangeEchoRejectedWithoutDispute: a Merkle-valid proof of a
// narrower range than requested is rejected, but not disputed — the cloud
// cannot know what was asked, so it is not provable evidence.
func TestScanWrongRangeEchoRejectedWithoutDispute(t *testing.T) {
	f := newScanFixture(t)
	op, req := f.launchScan(t, []byte("k01"), []byte("k07"))
	narrower := *req
	narrower.End = []byte("k04")
	resp := f.honestScanResponse(&narrower)
	if outs := f.deliver(t, false, resp); len(outs) != 0 {
		t.Fatalf("unexpected output: %v", outs)
	}
	if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
		t.Fatalf("wrong-range response accepted: %+v", op)
	}
	if f.c.Stats().Disputes != 0 {
		t.Fatal("unprovable range mismatch was disputed")
	}
}

// poisonedScan builds an honest scan response over one L0 block, then a
// poisoned twin: same signature, one served row tampered after signing —
// deliverable only by reference (in-process transports).
func poisonedScan(t *testing.T, f *scanFixture) (op *Op, honest, poisoned *wire.ScanResponse) {
	t.Helper()
	op, req := f.launchScan(t, nil, nil)
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{
		{Client: "c2", Seq: 1, Key: []byte("zz"), Value: []byte("w")},
	}}
	blk.Freeze()
	digest := wcrypto.BlockDigest(&blk)
	cert := wire.BlockProof{Edge: "edge-1", BID: 0, Digest: digest}
	cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)

	honest = scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{cert}}, f.idx)
	honest.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], honest)
	bad := *honest
	bad.Proof.L0Pruned = poisonedWindow(honest.Proof.L0Pruned)
	return op, honest, &bad
}

// poisonedWindow copies a one-slice window and gives its only row another
// value.
func poisonedWindow(window []wire.L0Slice) []wire.L0Slice {
	w := append([]wire.L0Slice(nil), window...)
	w[0].Rows = append([]wire.SliceRow(nil), w[0].Rows...)
	w[0].Rows[0].Entry.Value = []byte("evil")
	return w
}

// TestCachePoisonedScanRejectedInlineAndPooled extends the PR-3 parity
// suite to the scan path: the scan signature covers the slices as shipped,
// so a row tampered behind an honest signature must fail the signature
// check, as built and framed.
func TestCachePoisonedScanRejectedInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		// Honest digest-signed response sails through.
		f := newScanFixture(t)
		op, honest, _ := poisonedScan(t, f)
		f.deliver(t, framed, honest)
		if !op.Done || op.Err != nil {
			t.Fatalf("framed=%v: honest digest-signed scan rejected: %+v", framed, op)
		}
		if f.c.Stats().VerifyFailures != 0 {
			t.Fatalf("framed=%v: spurious verify failure", framed)
		}
		// The poisoned twin is rejected before any state advances.
		f = newScanFixture(t)
		op, _, poisoned := poisonedScan(t, f)
		f.deliver(t, framed, poisoned)
		if op.Done || op.Phase != core.PhaseNone {
			t.Fatalf("framed=%v: cache-poisoned scan advanced the op: %+v", framed, op)
		}
		if f.c.Stats().VerifyFailures == 0 {
			t.Fatalf("framed=%v: verify failure not counted", framed)
		}
	}
}

// poisonedGet mirrors poisonedScan for the get path.
func poisonedGet(t *testing.T, f *fixture) (op *Op, honest, poisoned *wire.ScanResponse) {
	t.Helper()
	op, envs := f.c.Get(10, []byte("k"))
	req := envs[0].Msg.(*wire.ScanRequest)
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{
		{Client: "c2", Seq: 1, Key: []byte("k"), Value: []byte("v")},
	}}
	blk.Freeze()
	digest := wcrypto.BlockDigest(&blk)
	cert := wire.BlockProof{Edge: "edge-1", BID: 0, Digest: digest}
	cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)
	honest = scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{cert}}, mlsm.NewIndex([]int{10}))
	honest.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], honest)
	bad := *honest
	bad.Proof.L0Pruned = poisonedWindow(honest.Proof.L0Pruned)
	return op, honest, &bad
}

// TestCachePoisonedGetRejectedInlineAndPooled: same parity for gets.
func TestCachePoisonedGetRejectedInlineAndPooled(t *testing.T) {
	for _, framed := range []bool{false, true} {
		f := newFixture(t)
		op, honest, _ := poisonedGet(t, f)
		deliverGet(t, f, framed, honest)
		if !op.Done || op.Err != nil || !op.Found || string(op.GotValue) != "v" {
			t.Fatalf("framed=%v: honest digest-signed get rejected: %+v", framed, op)
		}
		f = newFixture(t)
		op, _, poisoned := poisonedGet(t, f)
		deliverGet(t, f, framed, poisoned)
		if op.Done || op.Phase != core.PhaseNone {
			t.Fatalf("framed=%v: cache-poisoned get advanced the op: %+v", framed, op)
		}
		if f.c.Stats().VerifyFailures == 0 {
			t.Fatalf("framed=%v: verify failure not counted", framed)
		}
	}
}

// TestGetRejectsDroppedLeadingL0Block pins the compaction-frontier rule
// on the get path: an edge that omits its oldest uncompacted block —
// which could hold the key's freshest (or only) version — fails
// verification even though the remaining window is consecutive and
// certified.
func TestGetRejectsDroppedLeadingL0Block(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Get(10, []byte("victim"))
	req := envs[0].Msg.(*wire.ScanRequest)
	mkBlock := func(id uint64, key string) (wire.Block, wire.BlockProof) {
		blk := wire.Block{Edge: "edge-1", ID: id, StartPos: id, Entries: []wire.Entry{
			{Client: "c2", Seq: id + 1, Key: []byte(key), Value: []byte("v")},
		}}
		blk.Freeze()
		cert := wire.BlockProof{Edge: "edge-1", BID: id, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &cert)
		return blk, cert
	}
	b0, c0 := mkBlock(0, "victim")
	b1, c1 := mkBlock(1, "other")
	_, _ = b0, c0
	// The edge serves only block 1, hiding block 0's write of "victim".
	resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{
		Blocks: []wire.Block{b1}, Certs: []wire.BlockProof{c1},
	}, mlsm.NewIndex([]int{10}))
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: resp})
	if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
		t.Fatalf("get over a truncated L0 window accepted: %+v", op)
	}
}
