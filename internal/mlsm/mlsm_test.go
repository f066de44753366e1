package mlsm

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

func kv(key string, ver uint64) wire.KV {
	return wire.KV{Key: []byte(key), Value: []byte(fmt.Sprintf("%s@%d", key, ver)), Ver: ver}
}

func TestBlockKVsAssignsPositionVersions(t *testing.T) {
	b := &wire.Block{
		Edge: "e", ID: 3, StartPos: 100,
		Entries: []wire.Entry{
			{Client: "c", Key: []byte("a"), Value: []byte("1")},
			{Client: "c", Value: []byte("log-only")}, // no key: skipped
			{Client: "c", Key: []byte("b"), Value: []byte("2")},
		},
	}
	kvs := BlockKVs(b)
	if len(kvs) != 2 {
		t.Fatalf("len = %d", len(kvs))
	}
	if kvs[0].Ver != 101 || kvs[1].Ver != 103 {
		t.Fatalf("versions = %d,%d want 101,103", kvs[0].Ver, kvs[1].Ver)
	}
}

func TestMergeBasicsAndInvariants(t *testing.T) {
	src := []wire.KV{kv("d", 10), kv("b", 11), kv("b", 12), kv("a", 13)}
	dst := Merge([]wire.KV{kv("a", 1), kv("c", 2)}, nil, 1, 2, 0, 5)
	if err := CheckLevel(dst); err != nil {
		t.Fatalf("initial level invalid: %v", err)
	}
	out := Merge(src, dst, 1, 2, 10, 6)
	if err := CheckLevel(out); err != nil {
		t.Fatalf("merged level invalid: %v", err)
	}
	all := PagesKVs(out)
	want := map[string]uint64{"a": 13, "b": 12, "c": 2, "d": 10}
	if len(all) != len(want) {
		t.Fatalf("records = %d, want %d (%v)", len(all), len(want), all)
	}
	for _, r := range all {
		if want[string(r.Key)] != r.Ver {
			t.Errorf("key %s: ver %d, want %d", r.Key, r.Ver, want[string(r.Key)])
		}
	}
}

func TestMergeEmptyProducesFullRangePage(t *testing.T) {
	out := Merge(nil, nil, 2, 4, 0, 1)
	if len(out) != 1 {
		t.Fatalf("pages = %d", len(out))
	}
	if out[0].Lo != nil || out[0].Hi != nil || len(out[0].KVs) != 0 {
		t.Fatalf("placeholder page = %+v", out[0])
	}
	if err := CheckLevel(out); err != nil {
		t.Fatal(err)
	}
}

func TestMergePageCapRespected(t *testing.T) {
	var src []wire.KV
	for i := 0; i < 25; i++ {
		src = append(src, kv(fmt.Sprintf("k%03d", i), uint64(i+1)))
	}
	out := Merge(src, nil, 1, 10, 0, 1)
	if len(out) != 3 {
		t.Fatalf("pages = %d, want 3", len(out))
	}
	for i, p := range out {
		if len(p.KVs) > 10 {
			t.Fatalf("page %d has %d records", i, len(p.KVs))
		}
	}
	if err := CheckLevel(out); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesModelMap drives random put sequences through repeated
// merges and checks the level content against a model map — the paper's
// correctness claim that reads always observe latest-write-wins state.
func TestMergeMatchesModelMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		model := map[string]uint64{}
		var level []wire.Page
		ver := uint64(1)
		for round := 0; round < 5; round++ {
			var src []wire.KV
			for i := 0; i < 1+r.Intn(20); i++ {
				k := fmt.Sprintf("key-%d", r.Intn(15))
				src = append(src, kv(k, ver))
				model[k] = ver
				ver++
			}
			level = Merge(src, level, 1, 4, uint64(round*100), int64(round))
			if CheckLevel(level) != nil {
				return false
			}
		}
		got := map[string]uint64{}
		for _, r := range PagesKVs(level) {
			got[string(r.Key)] = r.Ver
		}
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLevelRejectsViolations(t *testing.T) {
	good := Merge([]wire.KV{kv("a", 1), kv("b", 2), kv("c", 3), kv("d", 4)}, nil, 1, 2, 0, 1)
	if err := CheckLevel(good); err != nil {
		t.Fatal(err)
	}
	// Gap between pages.
	gap := append([]wire.Page(nil), good...)
	gap[0].Hi = []byte("bb")
	if err := CheckLevel(gap); err == nil {
		t.Fatal("gap accepted")
	}
	// First page not -inf.
	lo := append([]wire.Page(nil), good...)
	lo[0].Lo = []byte("a")
	if err := CheckLevel(lo); err == nil {
		t.Fatal("bounded first page accepted")
	}
	// Key outside range.
	out := append([]wire.Page(nil), good...)
	out[0].KVs = append([]wire.KV(nil), out[0].KVs...)
	out[0].KVs[0].Key = []byte("zzz")
	if err := CheckLevel(out); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	// A page cut for a read.
	cut := append([]wire.Page(nil), good...)
	cut[1].Begin, cut[1].KVs = 1, cut[1].KVs[1:]
	if err := CheckLevel(cut); err == nil {
		t.Fatal("cut page accepted")
	}
	// Duplicate keys across the level.
	dup := Merge([]wire.KV{kv("a", 1), kv("b", 2)}, nil, 1, 1, 0, 1)
	dup[1].KVs[0].Key = []byte("a")
	dup[1].KVs[0].Ver = 9
	if err := CheckLevel(dup); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestPageLeafBindsRangeAndContent(t *testing.T) {
	p := wire.Page{Level: 1, Seq: 1, Lo: []byte("a"), Hi: []byte("m"), Count: 1, KVs: []wire.KV{kv("b", 1)}}
	l1 := PageLeaf(&p)
	p2 := p
	p2.Hi = []byte("z") // widen the claimed range
	if bytes.Equal(l1, PageLeaf(&p2)) {
		t.Fatal("leaf ignores range bounds")
	}
	p3 := p
	p3.KVs = []wire.KV{kv("b", 2)}
	if bytes.Equal(l1, PageLeaf(&p3)) {
		t.Fatal("leaf ignores content")
	}
}

// TestPageLeafGoldenVector pins the page leaf: LeafHash(Level ‖ Seq ‖ Lo ‖
// Hi ‖ Ts ‖ Count ‖ root), root the Merkle root over the records in key
// order, each record's leaf LeafHash(KV encoding), odd nodes promoted. The
// vector was computed by an independent implementation over a five-record
// page. The cloud's fold, the edge's commit and three cuts of the page — a
// get's, a miss's, a scan's — agree on it. If this fails the page
// commitment drifted — a format break: level roots, signed global roots
// and merge-request signatures from the other side of the change stop
// matching.
func TestPageLeafGoldenVector(t *testing.T) {
	const leaf = "29303eb305bdfba2f3d02303985026f4b2dd648817de939f6efa89513c3693e0"
	page := wire.Page{Level: 2, Seq: 17, Lo: []byte("b"), Hi: []byte("q"), Ts: 4321, Count: 5, KVs: []wire.KV{
		{Key: []byte("b"), Value: []byte("1"), Ver: 3},
		{Key: []byte("d"), Value: []byte("22"), Ver: 9},
		{Key: []byte("f"), Ver: 4},
		{Key: []byte("k"), Value: []byte("kv"), Ver: 12},
		{Key: []byte("p"), Value: []byte("pp"), Ver: 1},
	}}
	if got := hex.EncodeToString(PageLeaf(&page)); got != leaf {
		t.Fatalf("page leaf drifted:\n got %s\nwant %s", got, leaf)
	}
	trees, level := commitLevel([]wire.Page{page})
	if got := hex.EncodeToString(level.Leaves()[0]); got != leaf {
		t.Fatalf("committed leaf drifted: %s", got)
	}
	for _, r := range [][2]string{{"d", "d\x00"}, {"c", "c\x00"}, {"g", "p"}} {
		cut := page.Cut(trees[0], []byte(r[0]), []byte(r[1]))
		if cut.Whole() {
			t.Fatalf("[%q, %q) shipped the whole page", r[0], r[1])
		}
		if got := hex.EncodeToString(PageLeaf(&cut)); got != leaf {
			t.Fatalf("cut [%q, %q) folds to %s", r[0], r[1], got)
		}
	}
}

func TestGlobalRootOrderSensitive(t *testing.T) {
	r1 := wire.Encoder{}
	_ = r1
	a := merkle.LeafHash([]byte("a"))
	b := merkle.LeafHash([]byte("b"))
	if bytes.Equal(GlobalRoot([][]byte{a, b}), GlobalRoot([][]byte{b, a})) {
		t.Fatal("global root insensitive to level order")
	}
}

func newTestIndex(t *testing.T) *Index {
	t.Helper()
	return NewIndex([]int{2, 4})
}

func TestIndexInstallAndLookup(t *testing.T) {
	x := newTestIndex(t)
	pages := Merge([]wire.KV{kv("a", 1), kv("b", 2), kv("c", 3)}, nil, 1, 2, 0, 1)
	roots := [][]byte{LevelTree(pages).Root(), merkle.New(nil).Root()}
	global := wire.SignedRoot{Edge: "e", Epoch: 1, Root: GlobalRoot(roots), Ts: 1}
	if err := x.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}
	lvl, pi, rec, found := x.Lookup([]byte("b"))
	if !found || lvl != 1 || rec.Ver != 2 {
		t.Fatalf("Lookup(b) = %d,%d,%+v,%v", lvl, pi, rec, found)
	}
	if _, _, _, found := x.Lookup([]byte("zz")); found {
		t.Fatal("found a missing key")
	}
}

func TestIndexLookupPrefersLowerLevel(t *testing.T) {
	x := newTestIndex(t)
	// L2 holds an old version of "k"; L1 holds a newer one.
	l2 := Merge([]wire.KV{kv("k", 1), kv("z", 2)}, nil, 2, 4, 0, 1)
	r2 := LevelTree(l2).Root()
	roots := [][]byte{merkle.New(nil).Root(), r2}
	if err := x.InstallLevel(2, l2, roots, wire.SignedRoot{Root: GlobalRoot(roots)}); err != nil {
		t.Fatal(err)
	}
	l1 := Merge([]wire.KV{kv("k", 9)}, nil, 1, 4, 10, 2)
	roots2 := [][]byte{LevelTree(l1).Root(), r2}
	if err := x.InstallLevel(1, l1, roots2, wire.SignedRoot{Root: GlobalRoot(roots2)}); err != nil {
		t.Fatal(err)
	}
	_, _, rec, found := x.Lookup([]byte("k"))
	if !found || rec.Ver != 9 {
		t.Fatalf("Lookup(k) = %+v,%v want ver 9", rec, found)
	}
	_, _, rec, found = x.Lookup([]byte("z"))
	if !found || rec.Ver != 2 {
		t.Fatalf("Lookup(z) = %+v,%v want ver 2", rec, found)
	}
}

func TestIndexInstallRejectsRootMismatch(t *testing.T) {
	x := newTestIndex(t)
	pages := Merge([]wire.KV{kv("a", 1)}, nil, 1, 2, 0, 1)
	wrong := [][]byte{merkle.LeafHash([]byte("forged")), merkle.New(nil).Root()}
	if err := x.InstallLevel(1, pages, wrong, wire.SignedRoot{}); err == nil {
		t.Fatal("mismatched root accepted")
	}
}

func TestIndexOverThresholdAndClear(t *testing.T) {
	x := newTestIndex(t) // L1 threshold 2
	var src []wire.KV
	for i := 0; i < 7; i++ {
		src = append(src, kv(fmt.Sprintf("k%d", i), uint64(i+1)))
	}
	pages := Merge(src, nil, 1, 2, 0, 1) // 4 pages of cap 2
	roots := [][]byte{LevelTree(pages).Root(), merkle.New(nil).Root()}
	if err := x.InstallLevel(1, pages, roots, wire.SignedRoot{Root: GlobalRoot(roots)}); err != nil {
		t.Fatal(err)
	}
	if !x.OverThreshold(1) {
		t.Fatal("4 pages with threshold 2 not over")
	}
	// Merge L1 into L2, then clear L1.
	l2 := Merge(PagesKVs(pages), nil, 2, 4, 100, 2)
	roots2 := [][]byte{merkle.New(nil).Root(), LevelTree(l2).Root()}
	if err := x.InstallLevel(2, l2, roots2, wire.SignedRoot{Root: GlobalRoot(roots2)}); err != nil {
		t.Fatal(err)
	}
	if err := x.ClearLevel(1); err != nil {
		t.Fatal(err)
	}
	if x.OverThreshold(1) {
		t.Fatal("cleared level still over threshold")
	}
	if _, _, rec, found := x.Lookup([]byte("k3")); !found || rec.Ver != 4 {
		t.Fatalf("post-compaction Lookup(k3) = %+v,%v", rec, found)
	}
}

func TestLevelProofVerifies(t *testing.T) {
	x := newTestIndex(t)
	var src []wire.KV
	for i := 0; i < 9; i++ {
		src = append(src, kv(fmt.Sprintf("k%d", i), uint64(i+1)))
	}
	pages := Merge(src, nil, 1, 2, 0, 1)
	roots := [][]byte{LevelTree(pages).Root(), merkle.New(nil).Root()}
	if err := x.InstallLevel(1, pages, roots, wire.SignedRoot{Root: GlobalRoot(roots)}); err != nil {
		t.Fatal(err)
	}
	for pi := range pages {
		lp, err := x.LevelProof(1, pi, pages[pi].KVs[0].Key)
		if err != nil {
			t.Fatal(err)
		}
		leaf := PageLeaf(&lp.Page)
		if err := merkle.Verify(roots[0], leaf, int(lp.Index), int(lp.Width), lp.Path); err != nil {
			t.Fatalf("page %d proof: %v", pi, err)
		}
	}
}

func TestFindPageBoundaries(t *testing.T) {
	x := newTestIndex(t)
	src := []wire.KV{kv("b", 1), kv("d", 2), kv("f", 3), kv("h", 4)}
	pages := Merge(src, nil, 1, 2, 0, 1) // ranges: (-inf,"f") ["f",+inf)
	roots := [][]byte{LevelTree(pages).Root(), merkle.New(nil).Root()}
	if err := x.InstallLevel(1, pages, roots, wire.SignedRoot{Root: GlobalRoot(roots)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  string
		want int
	}{
		{"a", 0}, {"b", 0}, {"e", 0}, {"f", 1}, {"g", 1}, {"zzz", 1},
	}
	for _, c := range cases {
		if got := x.FindPage(1, []byte(c.key)); got != c.want {
			t.Errorf("FindPage(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	if got := x.FindPage(2, []byte("a")); got != -1 {
		t.Errorf("FindPage on empty level = %d", got)
	}
}

func TestMergeDoesNotMutateInputs(t *testing.T) {
	src := []wire.KV{kv("b", 2), kv("a", 1)}
	srcCopy := append([]wire.KV(nil), src...)
	dst := Merge([]wire.KV{kv("c", 1)}, nil, 1, 10, 0, 1)
	dstHash := LevelTree(dst).Root()
	_ = Merge(src, dst, 1, 10, 5, 2)
	for i := range src {
		if !bytes.Equal(src[i].Key, srcCopy[i].Key) || src[i].Ver != srcCopy[i].Ver {
			t.Fatal("Merge reordered caller's src slice")
		}
	}
	if !bytes.Equal(LevelTree(dst).Root(), dstHash) {
		t.Fatal("Merge mutated dst pages")
	}
}
