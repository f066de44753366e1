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

// refusedAndConvicted delivers an edge-signed read and checks the whole
// chain of a provable lie: the client refuses it, files it with the cloud,
// and the Judge — re-running the verifier the client ran — convicts.
func refusedAndConvicted(t *testing.T, f *scanFixture, op *Op, msg wire.Message) {
	t.Helper()
	outs := f.deliver(t, false, msg)
	if !op.Done || !errors.Is(op.Err, ErrBadResponse) {
		t.Fatalf("lie not refused: done=%v err=%v", op.Done, op.Err)
	}
	if len(outs) != 1 || outs[0].To != "cloud" {
		t.Fatalf("no dispute filed with the cloud: %v", outs)
	}
	d, ok := outs[0].Msg.(*wire.Dispute)
	if !ok {
		t.Fatalf("filed %T, not a dispute", outs[0].Msg)
	}
	if v := core.Judge(f.reg, core.NewCertTable(), "cloud", "c1", d); !v.Guilty {
		t.Fatalf("judge acquitted: %s", v.Reason)
	}
}

// TestGetLevelLieConvicts: an edge-signed get whose level page drops the
// key's row, claiming the key absent. The page no longer folds to its leaf
// in the signed level, so the client refuses the answer — and, since a get
// echoes its point range under the edge's signature, files it; the Judge
// re-runs the level verifier and convicts.
func TestGetLevelLieConvicts(t *testing.T) {
	f := newScanFixture(t)
	op, envs := f.c.Get(10, []byte("k03"))
	req := envs[0].Msg.(*wire.ScanRequest)
	resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{}, f.idx)
	if _, found := scan.PointAnswer(resp); !found || len(resp.Proof.Levels) != 1 {
		t.Fatalf("setup: found=%v levels=%d", found, len(resp.Proof.Levels))
	}
	p := &resp.Proof.Levels[0].Pages[0]
	var kept []wire.KV
	for _, kv := range p.KVs {
		if string(kv.Key) != "k03" {
			kept = append(kept, kv)
		}
	}
	p.KVs = kept
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	refusedAndConvicted(t, f, op, resp)
}

// TestLevelSliceLiesConvict is the adversarial matrix of level-page cuts:
// every way of lying with the cut of a page, in a get and in a scan. The
// fixture's level holds k00…k39 in pages of eight, and both requests fall
// inside the page [k08, k16), whose honest cut ships a flank on either
// side. Each lie is edge-signed; the client refuses it, files it, and the
// Judge convicts.
func TestLevelSliceLiesConvict(t *testing.T) {
	lies := []struct {
		name string
		lie  func(t *testing.T, f *scanFixture, p *wire.Page, start, end []byte)
	}{
		{"right flank missing", func(t *testing.T, f *scanFixture, p *wire.Page, start, _ []byte) {
			// The honest cut for a range ending at k12: it folds, the page
			// goes on past it, and its last record is inside the request —
			// no flank closes the get, and the scan loses k13.
			*p = f.cut(t, 1, start, []byte("k12"))
		}},
		{"flank inside the range", func(t *testing.T, f *scanFixture, p *wire.Page, _, end []byte) {
			// The honest cut for a range starting past k12: it folds, and
			// its left flank is k12 — inside the request, hiding k12 from
			// the get and k11 from the scan.
			*p = f.cut(t, 1, []byte("k12\x00"), end)
		}},
		{"shifted begin", func(_ *testing.T, _ *scanFixture, p *wire.Page, _, _ []byte) { p.Begin++ }},
		{"altered count", func(_ *testing.T, _ *scanFixture, p *wire.Page, _, _ []byte) { p.Count++ }},
		{"path spliced from a sibling page", func(t *testing.T, f *scanFixture, p *wire.Page, start, end []byte) {
			sib := f.cut(t, 2, start, end)
			p.PathLeft, p.PathRight = sib.PathLeft, sib.PathRight
		}},
		{"cut page presented as whole", func(_ *testing.T, _ *scanFixture, p *wire.Page, _, _ []byte) {
			p.Begin, p.Count, p.PathLeft, p.PathRight = 0, uint32(len(p.KVs)), nil, nil
		}},
	}
	for _, l := range lies {
		t.Run(l.name+"/get", func(t *testing.T) {
			f := newIndexFixture(t, 40, 8)
			op, envs := f.c.Get(10, []byte("k12"))
			req := envs[0].Msg.(*wire.ScanRequest)
			resp := scan.Assemble(req.Start, req.End, req.ReqID, mlsm.L0Source{}, f.idx)
			p := &resp.Proof.Levels[0].Pages[0]
			if p.Whole() || p.Begin == 0 || int(p.Begin)+len(p.KVs) == int(p.Count) {
				t.Fatalf("setup: the cut has no flank on one side: %+v", p)
			}
			if _, err := scan.Verify(scan.Params{Reg: f.reg, Edge: "edge-1", Cloud: "cloud"}, resp); err != nil {
				t.Fatalf("honest get rejected: %v", err)
			}
			l.lie(t, f, p, req.Start, req.End)
			resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
			refusedAndConvicted(t, f, op, resp)
		})
		t.Run(l.name+"/scan", func(t *testing.T) {
			f := newIndexFixture(t, 40, 8)
			op, req := f.launchScan(t, []byte("k11"), []byte("k14"))
			resp := f.honestScanResponse(req)
			if _, err := scan.Verify(scan.Params{Reg: f.reg, Edge: "edge-1", Cloud: "cloud"}, resp); err != nil {
				t.Fatalf("honest scan rejected: %v", err)
			}
			if len(resp.Proof.Levels) != 1 || len(resp.Proof.Levels[0].Pages) != 1 {
				t.Fatalf("setup: %d levels", len(resp.Proof.Levels))
			}
			l.lie(t, f, &resp.Proof.Levels[0].Pages[0], req.Start, req.End)
			resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
			refusedAndConvicted(t, f, op, resp)
		})
	}
}

// cut returns page pi of the fixture's level cut for [start, end), as the
// edge's index cuts it.
func (f *scanFixture) cut(t *testing.T, pi int, start, end []byte) wire.Page {
	t.Helper()
	lp, err := f.idx.LevelRangeProof(1, pi, pi+1, start, end)
	if err != nil {
		t.Fatal(err)
	}
	return lp.Pages[0]
}
