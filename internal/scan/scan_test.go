package scan

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

const (
	edgeID  = wire.NodeID("edge-1")
	cloudID = wire.NodeID("cloud")
)

// fixture is a self-contained edge snapshot: a two-level index whose
// level 1 holds 50 merged keys in 5-record pages under a cloud-signed
// global root, plus one certified and one uncertified L0 block.
type fixture struct {
	reg      *wcrypto.Registry
	cloudKey wcrypto.KeyPair
	edgeKey  wcrypto.KeyPair
	idx      *mlsm.Index
	l0       mlsm.L0Source
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		reg:      wcrypto.NewRegistry(),
		cloudKey: wcrypto.DeterministicKey(cloudID),
		edgeKey:  wcrypto.DeterministicKey(edgeID),
	}
	f.reg.Register(cloudID, f.cloudKey.Pub)
	f.reg.Register(edgeID, f.edgeKey.Pub)

	var kvs []wire.KV
	for i := 0; i < 50; i++ {
		kvs = append(kvs, wire.KV{Key: key(i), Value: []byte(fmt.Sprintf("v%d", i)), Ver: uint64(i + 1)})
	}
	pages := mlsm.Merge(kvs, nil, 1, 5, 0, 100)
	f.idx = mlsm.NewIndex([]int{20, 100})
	roots := [][]byte{mlsm.LevelTree(pages).Root(), mlsm.LevelTree(nil).Root()}
	global := wire.SignedRoot{Edge: edgeID, Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 100}
	global.CloudSig = wcrypto.SignMsg(f.cloudKey, &global)
	if err := f.idx.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}

	// L0: block 0 certified (overwrites k0010), block 1 uncertified
	// (adds k9999 and overwrites k0020).
	b0 := wire.Block{Edge: edgeID, ID: 0, StartPos: 1000, Ts: 200, Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: key(10), Value: []byte("v10-l0")},
	}}
	b0.Freeze()
	cert := wire.BlockProof{Edge: edgeID, BID: 0, Digest: wcrypto.BlockDigest(&b0)}
	cert.CloudSig = wcrypto.SignMsg(f.cloudKey, &cert)
	b1 := wire.Block{Edge: edgeID, ID: 1, StartPos: 1001, Ts: 300, Entries: []wire.Entry{
		{Client: "c1", Seq: 2, Key: []byte("k9999"), Value: []byte("tail")},
		{Client: "c1", Seq: 3, Key: key(20), Value: []byte("v20-l0")},
	}}
	b1.Freeze()
	f.l0 = mlsm.L0Source{Blocks: []wire.Block{b0, b1}, Certs: []wire.BlockProof{cert, {}}}
	return f
}

func (f *fixture) params() Params {
	return Params{Reg: f.reg, Edge: edgeID, Cloud: cloudID, Now: 150}
}

func (f *fixture) assemble(start, end []byte) *wire.ScanResponse {
	resp := Assemble(start, end, 7, f.l0, f.idx)
	return resp
}

// expected computes the reference result by brute force over the fixture's
// ground truth.
func (f *fixture) expected(start, end []byte) []wire.KV {
	var cand []wire.KV
	for lvl := 1; lvl <= f.idx.Levels(); lvl++ {
		for _, p := range f.idx.Pages(lvl) {
			cand = append(cand, p.KVs...)
		}
	}
	for bi := range f.l0.Blocks {
		blk := &f.l0.Blocks[bi]
		for j := range blk.Entries {
			e := &blk.Entries[j]
			cand = append(cand, wire.KV{Key: e.Key, Value: e.Value, Ver: blk.StartPos + uint64(j) + 1})
		}
	}
	merged := mlsm.MergeNewest(cand)
	var out []wire.KV
	for _, kv := range merged {
		if start != nil && bytes.Compare(kv.Key, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(kv.Key, end) >= 0 {
			continue
		}
		out = append(out, kv)
	}
	return out
}

func sameKVs(a, b []wire.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) || a[i].Ver != b[i].Ver {
			return false
		}
	}
	return true
}

func TestScanRoundTrip(t *testing.T) {
	f := newFixture(t)
	cases := []struct{ start, end []byte }{
		{key(7), key(23)},           // interior range spanning page boundaries
		{key(0), key(50)},           // whole merged range
		{nil, nil},                  // full scan, both bounds infinite
		{nil, key(13)},              // open left
		{key(44), nil},              // open right, catches the L0 tail key
		{key(10), key(11)},          // single key, L0-overwritten
		{key(3), append(key(3), 0)}, // single key via tight bound
	}
	for _, c := range cases {
		resp := f.assemble(c.start, c.end)
		res, err := Verify(f.params(), resp)
		if err != nil {
			t.Fatalf("[%q,%q): %v", c.start, c.end, err)
		}
		if want := f.expected(c.start, c.end); !sameKVs(res.KVs, want) {
			t.Fatalf("[%q,%q): got %d kvs, want %d\n got %v\nwant %v",
				c.start, c.end, len(res.KVs), len(want), res.KVs, want)
		}
		if len(res.Uncertified) != 1 {
			t.Fatalf("[%q,%q): want 1 uncertified block, got %v", c.start, c.end, res.Uncertified)
		}
		if res.Epoch != 1 || res.L0End != 2 {
			t.Fatalf("watermarks: epoch=%d l0end=%d", res.Epoch, res.L0End)
		}
	}
}

func TestScanNewestWins(t *testing.T) {
	f := newFixture(t)
	res, err := Verify(f.params(), f.assemble(key(10), key(21)))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, kv := range res.KVs {
		byKey[string(kv.Key)] = string(kv.Value)
	}
	if byKey["k0010"] != "v10-l0" {
		t.Fatalf("certified L0 overwrite lost: k0010=%q", byKey["k0010"])
	}
	if byKey["k0020"] != "v20-l0" {
		t.Fatalf("uncertified L0 overwrite lost: k0020=%q", byKey["k0020"])
	}
	if byKey["k0015"] != "v15" {
		t.Fatalf("merged value lost: k0015=%q", byKey["k0015"])
	}
}

func TestScanNoMergedState(t *testing.T) {
	f := newFixture(t)
	empty := mlsm.NewIndex([]int{20, 100})
	resp := Assemble(key(0), key(50), 7, f.l0, empty)
	res, err := Verify(f.params(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KVs) != 2 { // k0010 and k0020 from L0
		t.Fatalf("L0-only scan: got %v", res.KVs)
	}
}

// TestScanFrontierBinding pins the compaction-frontier rule: the served
// L0 window must start exactly at SignedRoot.L0From — neither dropping
// the oldest uncompacted block nor re-serving already-compacted ones is
// accepted — and with no signed state at all, the window must start at
// block 0 (nothing was ever compacted).
func TestScanFrontierBinding(t *testing.T) {
	f := newFixture(t)

	// Honest frontier advance: a global signed at L0From=1 with a window
	// starting at block 1 verifies; the same window against the fixture's
	// L0From=0 root does not (checked via the adversarial case above).
	var kvs []wire.KV
	for i := 0; i < 10; i++ {
		kvs = append(kvs, wire.KV{Key: key(i), Value: []byte("v"), Ver: uint64(i + 1)})
	}
	pages := mlsm.Merge(kvs, nil, 1, 5, 0, 100)
	idx := mlsm.NewIndex([]int{20, 100})
	roots := [][]byte{mlsm.LevelTree(pages).Root(), mlsm.LevelTree(nil).Root()}
	global := wire.SignedRoot{Edge: edgeID, Epoch: 2, Root: mlsm.GlobalRoot(roots), Ts: 120, L0From: 1}
	global.CloudSig = wcrypto.SignMsg(f.cloudKey, &global)
	if err := idx.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}
	l0 := mlsm.L0Source{Blocks: f.l0.Blocks[1:], Certs: f.l0.Certs[1:]}
	resp := Assemble(nil, nil, 7, l0, idx)
	if _, err := Verify(f.params(), resp); err != nil {
		t.Fatalf("window starting at the signed frontier rejected: %v", err)
	}

	// Re-serving the already-compacted block 0 under the L0From=1 root.
	stale := Assemble(nil, nil, 7, f.l0, idx)
	if _, err := Verify(f.params(), stale); err == nil {
		t.Fatal("window starting before the signed frontier accepted")
	}

	// No signed state: the window must start at block 0.
	empty := mlsm.NewIndex([]int{20, 100})
	noState := Assemble(nil, nil, 7, l0, empty)
	if _, err := Verify(f.params(), noState); err == nil {
		t.Fatal("no-merged-state window starting past block 0 accepted")
	}
}

func TestScanRejectsEmptyRange(t *testing.T) {
	f := newFixture(t)
	resp := f.assemble(key(5), key(23))
	resp.Start, resp.End = key(9), key(9)
	if _, err := Verify(f.params(), resp); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestScanStale(t *testing.T) {
	f := newFixture(t)
	p := f.params()
	p.FreshnessWindow = 10
	p.Now = 100 + 11 // root Ts is 100
	if _, err := Verify(p, f.assemble(key(0), key(9))); !errors.Is(err, ErrStale) {
		t.Fatalf("want ErrStale, got %v", err)
	}
}

// TestScanAdversarial drives the three lies of the threat model — omission
// mid-range, injection, boundary truncation — plus structural variants.
// Every mutation must fail verification with a descriptive error.
func TestScanAdversarial(t *testing.T) {
	start, end := key(7), key(33)
	cases := []struct {
		name   string
		mutate func(t *testing.T, f *fixture, resp *wire.ScanResponse)
	}{
		{"omit entry mid-range", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			lp := &resp.Proof.Levels[0]
			p := &lp.Pages[1]
			p.KVs = append(append([]wire.KV(nil), p.KVs[:2]...), p.KVs[3:]...)
		}},
		{"inject fake record", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			lp := &resp.Proof.Levels[0]
			p := &lp.Pages[1]
			p.KVs = append(append([]wire.KV(nil), p.KVs...), wire.KV{Key: []byte("k0012x"), Value: []byte("fake"), Ver: 9999})
		}},
		{"tamper value", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			resp.Proof.Levels[0].Pages[0].KVs[0].Value = []byte("evil")
		}},
		{"truncate page records", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[1]
			p.KVs = p.KVs[:1]
		}},
		{"shift page bounds", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[1]
			p.Lo = append([]byte(nil), p.Lo...)
			p.Lo[len(p.Lo)-1]++
		}},
		{"truncate right boundary page", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			// The edge recomputes an honest narrower proof — Merkle-valid,
			// but the last page's committed Hi now falls short of end.
			lp := &resp.Proof.Levels[0]
			narrow, err := f.idx.LevelRangeProof(1, int(lp.First), int(lp.First)+len(lp.Pages)-1, start, end)
			if err != nil {
				t.Fatal(err)
			}
			resp.Proof.Levels[0] = narrow
		}},
		{"truncate left boundary page", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			lp := &resp.Proof.Levels[0]
			narrow, err := f.idx.LevelRangeProof(1, int(lp.First)+1, int(lp.First)+len(lp.Pages), start, end)
			if err != nil {
				t.Fatal(err)
			}
			resp.Proof.Levels[0] = narrow
		}},
		{"drop level proof", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			resp.Proof.Levels = nil
		}},
		{"proof against empty level", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			forged := resp.Proof.Levels[0]
			forged.Level = 2
			for i := range forged.Pages {
				forged.Pages[i].Level = 2
			}
			resp.Proof.Levels = append(resp.Proof.Levels, forged)
		}},
		{"shift page positions", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			resp.Proof.Levels[0].First++
		}},
		{"forged global root", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			resp.Proof.Global.Ts += 1 // invalidates the cloud signature
		}},
		{"drop leading certified L0 block", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			// The remaining window is consecutive and fully certified,
			// but no longer starts at the signed compaction frontier.
			resp.Proof.L0Pruned = resp.Proof.L0Pruned[1:]
		}},
		{"tampered uncertified L0 entry is pinned", func(t *testing.T, f *fixture, resp *wire.ScanResponse) {
			// Not a structural failure: verification passes but must pin
			// the tampered digest so the later proof convicts. Checked
			// separately below.
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t)
			resp := f.assemble(start, end)
			if _, err := Verify(f.params(), resp); err != nil {
				t.Fatalf("honest baseline failed: %v", err)
			}
			c.mutate(t, f, resp)
			if c.name == "tampered uncertified L0 entry is pinned" {
				rows := resp.Proof.L0Pruned[1].Rows
				rows[len(rows)-1].Entry.Value = []byte("forged")
				res, err := Verify(f.params(), resp)
				if err != nil {
					t.Fatalf("uncertified tampering should defer to Phase II: %v", err)
				}
				honest := wcrypto.RecomputedBlockDigest(&f.l0.Blocks[1])
				if bytes.Equal(res.Uncertified[1], honest) {
					t.Fatal("pinned digest does not reflect the tampered content")
				}
				return
			}
			if _, err := Verify(f.params(), resp); err == nil {
				t.Fatal("tampered scan response accepted")
			}
		})
	}
}

// TestLeafCachePoisoningParity: a page the verifier has already proven
// buys a tampered copy of it nothing. Verify keeps no state between
// calls, so a response mutated after an honest scan of the same range was
// accepted is rejected with exactly the error a fresh verifier returns.
// The name is kept from the page-leaf memo this property once guarded.
func TestLeafCachePoisoningParity(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(resp *wire.ScanResponse)
	}{
		{"omit record from proven page", func(resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[1]
			p.KVs = append([]wire.KV(nil), p.KVs[:1]...)
		}},
		{"tamper value in proven page", func(resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[0]
			p.KVs = append([]wire.KV(nil), p.KVs...)
			p.KVs[0].Value = []byte("evil")
		}},
		{"inject record into proven page", func(resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[1]
			p.KVs = append(append([]wire.KV(nil), p.KVs...), wire.KV{Key: []byte("kxxxx"), Value: []byte("x"), Ver: 999})
		}},
		{"shift proven page bounds", func(resp *wire.ScanResponse) {
			p := &resp.Proof.Levels[0].Pages[1]
			p.Lo = append([]byte(nil), p.Lo...)
			p.Lo[len(p.Lo)-1]++
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			f := newFixture(t)
			p := f.params()
			cold := f.assemble(key(5), key(30))
			m.mutate(cold)
			_, coldErr := Verify(p, cold)
			if coldErr == nil {
				t.Fatal("fresh verification accepted the mutation; test is vacuous")
			}
			// Prove the honest pages first, then present the tampered copy.
			if _, err := Verify(p, f.assemble(key(5), key(30))); err != nil {
				t.Fatalf("honest scan failed: %v", err)
			}
			resp := f.assemble(key(5), key(30))
			m.mutate(resp)
			_, warmErr := Verify(p, resp)
			if warmErr == nil {
				t.Fatal("tampered page accepted after its honest copy was proven")
			}
			if warmErr.Error() != coldErr.Error() {
				t.Fatalf("verdict depends on earlier scans: %v after an honest scan, %v fresh", warmErr, coldErr)
			}
		})
	}
}

// TestPointScanEvidenceShape pins what a get ships over the three-level
// world: an L0 hit ships no levels, roots or global root; a level hit ships
// the levels down to it and none below; a miss ships every level. Each
// verifies to the log's answer, which is also what PointAnswer reads out
// of the evidence unverified — and a level page that drops the key is
// refused.
func TestPointScanEvidenceShape(t *testing.T) {
	w := newFuzzWorld(t)
	for _, c := range []struct {
		key    string
		levels []uint32
	}{
		{"k04", nil},               // in blocks 3 and 4, the L0 window
		{"k05", []uint32{1, 2}},    // newest in level 2; level 3 holds an older version
		{"k06", []uint32{1, 2, 3}}, // nowhere
	} {
		resp := w.point(c.key)
		var got []uint32
		for _, lp := range resp.Proof.Levels {
			got = append(got, lp.Level)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.levels) {
			t.Fatalf("%s: levels %v, want %v", c.key, got, c.levels)
		}
		if l0Hit := c.levels == nil; l0Hit != (len(resp.Proof.Roots) == 0 && len(resp.Proof.Global.CloudSig) == 0) {
			t.Fatalf("%s: roots/global shipped = %v, want %v", c.key, !l0Hit, l0Hit)
		}
		res, err := Verify(w.params, resp)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		start, end := wire.PointRange([]byte(c.key))
		if want := w.answer(start, end, 5); !sameKVs(res.KVs, want) {
			t.Fatalf("%s: verified %v, the log says %v", c.key, res.KVs, want)
		}
		kv, found := PointAnswer(resp)
		if found != (len(res.KVs) == 1) || found && !sameKVs([]wire.KV{kv}, res.KVs) {
			t.Fatalf("%s: PointAnswer %v/%v, Verify %v", c.key, kv, found, res.KVs)
		}
	}

	lie := w.point("k05")
	pg := &lie.Proof.Levels[1].Pages[0]
	for i := range pg.KVs {
		if string(pg.KVs[i].Key) == "k05" {
			pg.KVs = append(pg.KVs[:i:i], pg.KVs[i+1:]...)
			break
		}
	}
	if _, err := Verify(w.params, lie); err == nil {
		t.Fatal("level page without the key accepted")
	}
}
