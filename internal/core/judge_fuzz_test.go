package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// judgeWorld is an honest edge's state and what the cloud knows of it:
// blocks 0–4, every one certified; blocks 0–2 compacted away under a
// signed root whose frontier is block 3, with level 1 holding k00…k39 in
// pages of eight; and a read window of block 3 (shipped with its
// certificate; it writes "hidden" twice around "apple" and a log entry)
// and block 4 (shipped as Phase I; "other" and "zoo"). Gossip vouches
// for all five blocks.
type judgeWorld struct {
	reg    *wcrypto.Registry
	keys   map[wire.NodeID]wcrypto.KeyPair
	certs  *CertTable
	blocks []wire.Block
	l0     mlsm.L0Source
	idx    *mlsm.Index
	gossip *wire.Gossip
}

func newJudgeWorld(tb testing.TB) *judgeWorld {
	tb.Helper()
	w := &judgeWorld{reg: wcrypto.NewRegistry(), keys: map[wire.NodeID]wcrypto.KeyPair{}, certs: NewCertTable()}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1", "evil"} {
		w.keys[id] = wcrypto.DeterministicKey(id)
		w.reg.Register(id, w.keys[id].Pub)
	}
	put := func(seq uint64, k, v string) wire.Entry {
		return wire.Entry{Client: "c2", Seq: seq, Key: []byte(k), Value: []byte(v)}
	}
	pos := uint64(0)
	for i, entries := range [][]wire.Entry{
		{put(1, "a0", "x"), put(2, "a1", "x")},
		{put(3, "a2", "x")},
		{put(4, "a3", "x")},
		{put(5, "hidden", "vold"), put(6, "apple", "a"), {Client: "c2", Seq: 7, Value: []byte("log")}, put(8, "hidden", "vhidden")},
		{put(9, "other", "vother"), put(10, "zoo", "z")},
	} {
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: pos, Ts: int64(i), Entries: entries}
		pos += uint64(len(entries))
		blk.Freeze()
		w.certs.Certify("edge-1", blk.ID, wcrypto.BlockDigest(&blk))
		w.blocks = append(w.blocks, blk)
	}
	var kvs []wire.KV
	for i := 0; i < 40; i++ {
		kvs = append(kvs, wire.KV{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%d", i)), Ver: uint64(i + 1)})
	}
	pages := mlsm.Merge(kvs, nil, 1, 8, 0, 10)
	roots := [][]byte{mlsm.LevelTree(pages).Root(), mlsm.LevelTree(nil).Root()}
	global := wire.SignedRoot{Edge: "edge-1", Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 10, L0From: 3}
	global.CloudSig = wcrypto.SignMsg(w.keys["cloud"], &global)
	w.idx = mlsm.NewIndex([]int{20, 100})
	if err := w.idx.InstallLevel(1, pages, roots, global); err != nil {
		tb.Fatal(err)
	}
	cert := wire.BlockProof{Edge: "edge-1", BID: 3, Digest: wcrypto.BlockDigest(&w.blocks[3])}
	cert.CloudSig = wcrypto.SignMsg(w.keys["cloud"], &cert)
	w.l0 = mlsm.L0Source{Blocks: w.blocks[3:], Certs: []wire.BlockProof{cert, {}}}
	w.gossip = &wire.Gossip{Edge: "edge-1", Ts: 50, Blocks: uint64(len(w.blocks))}
	w.gossip.CloudSig = wcrypto.SignMsg(w.keys["cloud"], w.gossip)
	return w
}

// scan is the honest edge's unsigned answer to a read of [start, end).
func (w *judgeWorld) scan(start, end []byte) *wire.ScanResponse {
	return scan.Assemble(start, end, 1, w.l0, w.idx)
}

// signed signs an edge response with the named key.
func (w *judgeWorld) signed(signer wire.NodeID, m wire.Message) wire.Message {
	switch r := m.(type) {
	case *wire.PutResponse:
		r.EdgeSig = wcrypto.SignMsg(w.keys[signer], r)
	case *wire.ReadResponse:
		r.EdgeSig = wcrypto.SignMsg(w.keys[signer], r)
	case *wire.ScanResponse:
		r.EdgeSig = wcrypto.SignMsg(w.keys[signer], r)
	}
	return m
}

// dispute files evidence (and, for an omission, gossip) against edge-1.
func (w *judgeWorld) dispute(kind wire.DisputeKind, bid uint64, ev, ev2 wire.Message) *wire.Dispute {
	d := &wire.Dispute{Kind: kind, Edge: "edge-1", BID: bid, Evidence: wire.EncodeMessage(ev)}
	if ev2 != nil {
		d.Evidence2 = wire.EncodeMessage(ev2)
	}
	d.ClientSig = wcrypto.SignMsg(w.keys["c1"], d)
	return d
}

// honest reports whether evidence is what the honest edge serves: the
// blocks it holds, a denial of a block it never cut, or the read response
// it assembles for the range echoed. Request echoes (ids, timestamps) and
// the signature are the evidence's own.
func (w *judgeWorld) honest(ev wire.Message) bool {
	var want wire.Message
	switch r := ev.(type) {
	case *wire.PutResponse:
		if r.BID >= uint64(len(w.blocks)) {
			return false
		}
		want = &wire.PutResponse{BID: r.BID, Block: w.blocks[r.BID], EdgeSig: r.EdgeSig}
	case *wire.ReadResponse:
		if !r.OK {
			return r.BID >= uint64(len(w.blocks))
		}
		if r.BID >= uint64(len(w.blocks)) {
			return false
		}
		want = &wire.ReadResponse{ReqID: r.ReqID, BID: r.BID, OK: true, Ts: r.Ts, Block: w.blocks[r.BID], HasProof: r.HasProof, Proof: r.Proof, EdgeSig: r.EdgeSig}
	case *wire.ScanResponse:
		if r.Start != nil && r.End != nil && bytes.Compare(r.Start, r.End) >= 0 {
			return false // an honest edge serves no empty range
		}
		a := scan.Assemble(r.Start, r.End, r.ReqID, w.l0, w.idx)
		a.EdgeSig = r.EdgeSig
		want = a
	default:
		return false
	}
	return bytes.Equal(wire.EncodeMessage(want), wire.EncodeMessage(ev))
}

// sortedKeys lists a map's keys in order, so seeds are added in the same
// order every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// judgeLie is one lying scan response, named for failure messages.
type judgeLie struct {
	name string
	resp *wire.ScanResponse
}

// judgeLies are the lies of the client's adversarial matrices —
// TestLevelSliceLiesConvict and TestL0SliceLiesConvict — rebuilt over the
// judge world, each as a get (point scan) and as a scan: a level page cut
// wrongly, and an L0 window slice lied about, with block 3 shipped
// certified or not.
func judgeLies(tb testing.TB, w *judgeWorld) []judgeLie {
	tb.Helper()
	cut := func(pi int, start, end []byte) wire.Page {
		lp, err := w.idx.LevelRangeProof(1, pi, pi+1, start, end)
		if err != nil {
			tb.Fatal(err)
		}
		return lp.Pages[0]
	}
	levelLies := map[string]func(p *wire.Page, start, end []byte){
		"right flank missing":    func(p *wire.Page, start, _ []byte) { *p = cut(1, start, []byte("k12")) },
		"flank inside the range": func(p *wire.Page, _, end []byte) { *p = cut(1, []byte("k12\x00"), end) },
		"shifted begin":          func(p *wire.Page, _, _ []byte) { p.Begin++ },
		"altered count":          func(p *wire.Page, _, _ []byte) { p.Count++ },
		"path from a sibling page": func(p *wire.Page, start, end []byte) {
			s := cut(2, start, end)
			p.PathLeft, p.PathRight = s.PathLeft, s.PathRight
		},
		"cut page as whole": func(p *wire.Page, _, _ []byte) {
			p.Begin, p.Count, p.PathLeft, p.PathRight = 0, uint32(len(p.KVs)), nil, nil
		},
	}
	var out []judgeLie
	k12, k12end := wire.PointRange([]byte("k12"))
	for _, name := range sortedKeys(levelLies) {
		lie := levelLies[name]
		for _, r := range [][2][]byte{{k12, k12end}, {[]byte("k11"), []byte("k14")}} {
			resp := w.scan(r[0], r[1])
			lie(&resp.Proof.Levels[0].Pages[0], r[0], r[1])
			out = append(out, judgeLie{fmt.Sprintf("level %s [%q, %q)", name, r[0], r[1]), resp})
		}
	}

	blk := &w.blocks[3]
	reslice := func(win []wire.L0Slice, b *wire.Block, start, end []byte) []wire.L0Slice {
		sig := win[0].CertSig
		win[0] = b.Slice(start, end)
		win[0].CertSig = sig
		return win
	}
	doctored := *blk
	doctored.Invalidate()
	doctored.Entries = nil
	for _, e := range blk.Entries {
		if string(e.Key) != "hidden" {
			doctored.Entries = append(doctored.Entries, e)
		}
	}
	elsewhere := wire.Entry{Client: "c9", Seq: 1, Key: []byte("hidden"), Value: []byte("from another block")}
	type window = []wire.L0Slice
	l0Lies := map[string]func(win window, start, end []byte) window{
		"omitted in-range row": func(win window, _, _ []byte) window { win[0].Rows = win[0].Rows[:1]; return win },
		"omitted row, count adjusted": func(win window, _, _ []byte) window {
			win[0].Rows = win[0].Rows[:1]
			win[0].Count--
			return win
		},
		"row from another block":           func(win window, _, _ []byte) window { win[0].Rows[1].Entry = elsewhere; return win },
		"forged value under an honest key": func(win window, _, _ []byte) window { win[0].Rows[1].Entry.Value = []byte("forged"); return win },
		"flank that does not bracket":      func(win window, start, _ []byte) window { return reslice(win, blk, start, []byte("hidden")) },
		"slice of a doctored block":        func(win window, start, end []byte) window { return reslice(win, &doctored, start, end) },
		"forged flank": func(win window, _, _ []byte) window {
			f := *win[0].Left
			f.Hash = append([]byte(nil), f.Hash...)
			f.Hash[0] ^= 1
			win[0].Left = &f
			return win
		},
		"shifted begin":      func(win window, _, _ []byte) window { win[0].Begin++; return win },
		"index at count":     func(win window, _, _ []byte) window { win[0].Rows[1].Index = win[0].Count; return win },
		"wrong count":        func(win window, _, _ []byte) window { win[0].Count++; return win },
		"duplicate position": func(win window, _, _ []byte) window { return append(win[:1:1], win[0], win[1]) },
		"stale window":       func(win window, _, _ []byte) window { return win[1:] },
	}
	hidden, hiddenEnd := wire.PointRange([]byte("hidden"))
	for _, name := range sortedKeys(l0Lies) {
		lie := l0Lies[name]
		for _, r := range [][2][]byte{{hidden, hiddenEnd}, {[]byte("h"), []byte("i")}} {
			for _, certified := range []bool{true, false} {
				resp := w.scan(r[0], r[1])
				if !certified {
					resp.Proof.L0Pruned[0].CertSig = nil
				}
				resp.Proof.L0Pruned = lie(resp.Proof.L0Pruned, r[0], r[1])
				out = append(out, judgeLie{fmt.Sprintf("L0 %s [%q, %q) certified=%v", name, r[0], r[1], certified), resp})
			}
		}
	}
	return out
}

// FuzzJudge fuzzes the cloud's adjudication over every dispute kind. The
// seeds are disputes over an honest edge's put, read (served and denied)
// and scan responses, gets among them, and over each lie of the client's
// adversarial matrices, which must convict. Whatever a mutation decodes
// to, re-signed by the client so that it reaches the evidence checks:
//   - Judge never panics;
//   - evidence the honest edge serves is never guilty, whatever kind or
//     block the accusation names;
//   - evidence signed by a key other than the accused edge's never
//     convicts, nor does omission gossip the cloud did not sign.
func FuzzJudge(f *testing.F) {
	w := newJudgeWorld(f)
	add := func(d *wire.Dispute) { f.Add(wire.EncodeMessage(d)) }
	for bid := uint64(0); bid < uint64(len(w.blocks)); bid++ {
		add(w.dispute(wire.DisputeAddLie, bid, w.signed("edge-1", &wire.PutResponse{BID: bid, Block: w.blocks[bid]}), nil))
		read := &wire.ReadResponse{ReqID: 1, BID: bid, OK: true, Ts: 60, Block: w.blocks[bid]}
		add(w.dispute(wire.DisputeReadLie, bid, w.signed("edge-1", read), nil))
	}
	add(w.dispute(wire.DisputeOmission, 5, w.signed("edge-1", &wire.ReadResponse{ReqID: 1, BID: 5, Ts: 60}), w.gossip))
	for _, k := range []string{"hidden", "other", "k12", "k99", "a1"} {
		start, end := wire.PointRange([]byte(k))
		add(w.dispute(wire.DisputeScanLie, 3, w.signed("edge-1", w.scan(start, end)), nil))
	}
	for _, r := range [][2]string{{"h", "p"}, {"k10", "k20"}, {"", ""}} {
		var start, end []byte
		if r[0] != "" {
			start, end = []byte(r[0]), []byte(r[1])
		}
		add(w.dispute(wire.DisputeScanLie, 4, w.signed("edge-1", w.scan(start, end)), nil))
	}

	// Lies, each of which convicts.
	tampered := w.blocks[3]
	tampered.Invalidate()
	tampered.Entries = append([]wire.Entry(nil), tampered.Entries...)
	tampered.Entries[1].Value = []byte("tampered")
	lies := map[string]*wire.Dispute{
		"tampered put ack":    w.dispute(wire.DisputeAddLie, 3, w.signed("edge-1", &wire.PutResponse{BID: 3, Block: tampered}), nil),
		"tampered log read":   w.dispute(wire.DisputeReadLie, 3, w.signed("edge-1", &wire.ReadResponse{ReqID: 1, BID: 3, OK: true, Ts: 60, Block: tampered}), nil),
		"denied after gossip": w.dispute(wire.DisputeOmission, 2, w.signed("edge-1", &wire.ReadResponse{ReqID: 1, BID: 2, Ts: 60}), w.gossip),
	}
	for _, l := range judgeLies(f, w) {
		lies[l.name] = w.dispute(wire.DisputeScanLie, 3, w.signed("edge-1", l.resp), nil)
	}
	for _, name := range sortedKeys(lies) {
		d := lies[name]
		if v := Judge(w.reg, w.certs, "cloud", "c1", d, d.Edge); !v.Guilty {
			f.Fatalf("%s acquitted: %s", name, v.Reason)
		}
		add(d)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeMessage(data)
		d, ok := m.(*wire.Dispute)
		if err != nil || !ok {
			return
		}
		d.ClientSig = wcrypto.SignMsg(w.keys["c1"], d)
		v := Judge(w.reg, w.certs, "cloud", "c1", d, d.Edge)
		ev, err := wire.DecodeMessage(d.Evidence)
		if err != nil {
			return
		}
		if v.Guilty && w.honest(ev) {
			t.Fatalf("honest %T convicted under %v over block %d: %s", ev, d.Kind, d.BID, v.Reason)
		}

		// The same accusation over evidence another key signed.
		other := wire.NodeID("evil")
		if d.Edge == other {
			other = "edge-1"
		}
		forged := *d
		forged.Evidence = wire.EncodeMessage(w.signed(other, ev))
		forged.ClientSig = wcrypto.SignMsg(w.keys["c1"], &forged)
		if v := Judge(w.reg, w.certs, "cloud", "c1", &forged, forged.Edge); v.Guilty {
			t.Fatalf("%T signed by %s convicted %s: %s", ev, other, d.Edge, v.Reason)
		}

		// And over gossip the cloud did not sign.
		if g, err := wire.DecodeMessage(d.Evidence2); err == nil {
			if g, ok := g.(*wire.Gossip); ok {
				g.CloudSig = wcrypto.SignMsg(w.keys["edge-1"], g)
				forged := *d
				forged.Evidence2 = wire.EncodeMessage(g)
				forged.ClientSig = wcrypto.SignMsg(w.keys["c1"], &forged)
				if v := Judge(w.reg, w.certs, "cloud", "c1", &forged, forged.Edge); v.Guilty {
					t.Fatalf("gossip signed by edge-1 convicted: %s", v.Reason)
				}
			}
		}
	})
}
