package mlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

// referenceMerge is the merge as it was before it sorted only unsorted
// input: copy, reflection-based stable sort, dedupe, two-way merge, one
// copied slice per page. Merge must keep producing exactly these pages.
func referenceMerge(srcKVs []wire.KV, dst []wire.Page, level uint32, pageCap int, seqStart uint64, ts int64) []wire.Page {
	src := append([]wire.KV(nil), srcKVs...)
	sort.SliceStable(src, func(i, j int) bool {
		if c := bytes.Compare(src[i].Key, src[j].Key); c != 0 {
			return c < 0
		}
		return src[i].Ver > src[j].Ver
	})
	merged := mergeRuns(dedupeSorted(src), PagesKVs(dst))
	var pages []wire.Page
	for start := 0; start < len(merged); start += pageCap {
		end := min(start+pageCap, len(merged))
		pages = append(pages, wire.Page{Level: level, Seq: seqStart + uint64(len(pages)), Ts: ts,
			Count: uint32(end - start), KVs: append([]wire.KV(nil), merged[start:end]...)})
	}
	if len(pages) == 0 {
		pages = append(pages, wire.Page{Level: level, Seq: seqStart, Ts: ts})
	}
	for i := 1; i < len(pages); i++ {
		pages[i].Lo, pages[i-1].Hi = pages[i].KVs[0].Key, pages[i].KVs[0].Key
	}
	return pages
}

func encodePages(pages []wire.Page) []byte {
	var e wire.Encoder
	for i := range pages {
		pages[i].EncodeTo(&e)
	}
	return e.Bytes()
}

// randomBlocks cuts n blocks of random puts over a small keyspace (so keys
// repeat inside and across blocks), with the odd key-less log entry.
func randomBlocks(r *rand.Rand, firstID, startPos uint64, n, keyspace int) []wire.Block {
	blocks := make([]wire.Block, n)
	for b := range blocks {
		blk := wire.Block{Edge: "edge-1", ID: firstID + uint64(b), StartPos: startPos, Ts: int64(b)}
		for i := 0; i < 1+r.Intn(12); i++ {
			e := wire.Entry{Client: "c1", Seq: startPos + uint64(i), Value: []byte(fmt.Sprintf("v%d", r.Int()))}
			if r.Intn(8) > 0 {
				e.Key = []byte(fmt.Sprintf("key-%03d", r.Intn(keyspace)))
			}
			blk.Entries = append(blk.Entries, e)
		}
		startPos += uint64(len(blk.Entries))
		blocks[b] = blk
	}
	return blocks
}

// keptCloud merges the way the cloud does: over the blocks that crossed
// the link and what it kept of each level (Hashes: keys, versions and
// record leaves, no values), never over the edge's pages.
type keptCloud []*Hashes

func newKeptCloud(levels int) keptCloud {
	c := make(keptCloud, levels)
	for i := range c {
		c[i] = HashLevel(nil)
	}
	return c
}

// merge answers req with the values the cloud would choose and returns
// the level roots after it.
func (c keptCloud) merge(t *testing.T, req *wire.MergeRequest, pageCap int, pageSeq uint64, ts int64) [][]byte {
	t.Helper()
	m, err := wire.DecodeMessage(wire.EncodeMessage(req))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*wire.MergeRequest)
	lvl := int(got.FromLevel)
	runs := []*Records{c[lvl].Records()}
	var srcKVs []wire.KV
	for i := range got.L0Blocks {
		srcKVs = append(srcKVs, BlockKVs(&got.L0Blocks[i])...)
	}
	if lvl > 0 {
		srcKVs = PagesKVs(c[lvl-1].Pages())
		runs = append(runs, c[lvl-1].Records())
	}
	c[lvl] = HashLevel(Merge(srcKVs, c[lvl].Pages(), uint32(lvl+1), pageCap, pageSeq, ts), runs...)
	if lvl > 0 {
		c[lvl-1] = HashLevel(nil)
	}
	roots := make([][]byte, len(c))
	for i, h := range c {
		roots[i] = h.Root
	}
	return roots
}

// deriveAndInstall is the edge's side of a merge the cloud answered with
// roots: re-run it over the shipped blocks or its own source level and its
// own destination level, and install the pages under those roots.
func deriveAndInstall(idx *Index, req *wire.MergeRequest, roots [][]byte, pageCap int, pageSeq uint64, ts int64) ([]wire.Page, error) {
	target := int(req.FromLevel) + 1
	var srcKVs []wire.KV
	if req.FromLevel > 0 {
		srcKVs = PagesKVs(idx.Pages(int(req.FromLevel)))
	}
	for i := range req.L0Blocks {
		srcKVs = append(srcKVs, BlockKVs(&req.L0Blocks[i])...)
	}
	derived := Merge(srcKVs, idx.Pages(target), uint32(target), pageCap, pageSeq, ts)
	if err := idx.InstallLevel(target, derived, roots, wire.SignedRoot{Ts: ts}); err != nil {
		return nil, err
	}
	if req.FromLevel > 0 {
		return derived, idx.ClearLevel(int(req.FromLevel))
	}
	return derived, nil
}

// TestDerivedPagesMatchCloud is the property a data-free merge response
// rests on: from its own levels, the blocks it shipped and the three
// values the cloud signed, the edge derives the reference merge's pages
// without modifying its inputs, and they hash to the roots the cloud
// signed — for L0 and level-to-level merges, duplicate keys, an empty
// destination, and page capacities of 1 and 100.
func TestDerivedPagesMatchCloud(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, pageCap := range []int{1, 100} {
			r := rand.New(rand.NewSource(seed))
			idx, cloud := NewIndex([]int{2, 4}), newKeptCloud(2)
			var bid, pos, pageSeq uint64
			for round := 0; round < 4; round++ {
				// L0 -> L1 on even rounds (the first into an empty
				// level), L1 -> L2 on odd ones.
				req := &wire.MergeRequest{Edge: "edge-1", ReqID: uint64(round + 1)}
				var src []wire.Page
				if round%2 == 0 {
					req.L0Blocks = randomBlocks(r, bid, pos, 1+r.Intn(5), 25)
					bid += uint64(len(req.L0Blocks))
					last := req.L0Blocks[len(req.L0Blocks)-1]
					pos = last.StartPos + uint64(len(last.Entries))
				} else {
					req.FromLevel = 1
					src = idx.Pages(1)
				}
				target := int(req.FromLevel) + 1
				dst := idx.Pages(target)
				before := encodePages(append(append([]wire.Page(nil), src...), dst...))
				ts := int64(1000 + round)

				roots := cloud.merge(t, req, pageCap, pageSeq, ts)
				derived, err := deriveAndInstall(idx, req, roots, pageCap, pageSeq, ts)
				if err != nil {
					t.Fatalf("seed %d cap %d round %d: derived pages do not install under the cloud's roots: %v", seed, pageCap, round, err)
				}
				srcKVs := PagesKVs(src)
				for i := range req.L0Blocks {
					srcKVs = append(srcKVs, BlockKVs(&req.L0Blocks[i])...)
				}
				if want := referenceMerge(srcKVs, dst, uint32(target), pageCap, pageSeq, ts); !bytes.Equal(encodePages(derived), encodePages(want)) {
					t.Fatalf("seed %d cap %d round %d: pages differ from the reference merge", seed, pageCap, round)
				}
				if !bytes.Equal(encodePages(append(append([]wire.Page(nil), src...), dst...)), before) {
					t.Fatalf("seed %d cap %d round %d: Merge modified its inputs", seed, pageCap, round)
				}
				pageSeq += uint64(len(derived))
			}
		}
	}
}

// TestCloudMergeOverKeptRecordsMatchesEdge: the cloud merges the keys,
// versions and record leaves it kept of each level; the edge merges full
// pages and installs them. Over random shapes — duplicate keys within and
// across blocks, key-less entries, empty source and destination levels,
// L0 and level-to-level merges in any order, page capacities 1 to 100 —
// both must hold the same level: page for page the same header and
// bounds, record for record the same key and version (the cloud's with no
// value), the same page leaves and the same roots.
func TestCloudMergeOverKeptRecordsMatchesEdge(t *testing.T) {
	const levels = 3
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		pageCap := int(seed) // 1 to 100
		idx, cloud := NewIndex(make([]int, levels)), newKeptCloud(levels)
		var bid, pos, pageSeq uint64
		for round := 0; round < 12; round++ {
			req := &wire.MergeRequest{Edge: "edge-1", ReqID: uint64(round + 1)}
			if lvl := r.Intn(levels); lvl == 0 {
				req.L0Blocks = randomBlocks(r, bid, pos, 1+r.Intn(5), 5+r.Intn(300))
				bid += uint64(len(req.L0Blocks))
				last := req.L0Blocks[len(req.L0Blocks)-1]
				pos = last.StartPos + uint64(len(last.Entries))
			} else {
				req.FromLevel = uint32(lvl)
			}
			ts := int64(1000 + round)
			roots := cloud.merge(t, req, pageCap, pageSeq, ts)
			derived, err := deriveAndInstall(idx, req, roots, pageCap, pageSeq, ts)
			if err != nil {
				t.Fatalf("seed %d round %d: edge pages do not install under the cloud's roots: %v", seed, round, err)
			}
			pageSeq += uint64(len(derived))
			for lvl := 1; lvl <= levels; lvl++ {
				if err := sameLevel(cloud[lvl-1], idx, lvl); err != nil {
					t.Fatalf("seed %d round %d level %d: %v", seed, round, lvl, err)
				}
			}
		}
	}
}

// sameLevel reports how the cloud's kept level differs from the edge's.
func sameLevel(kept *Hashes, idx *Index, lvl int) error {
	pages, leaves := idx.Pages(lvl), idx.trees[lvl-1].LeafRow()
	if !bytes.Equal(kept.Root, idx.Roots()[lvl-1]) || !bytes.Equal(kept.Root, idx.trees[lvl-1].Root()) {
		return fmt.Errorf("roots differ")
	}
	if len(kept.Pages()) != len(pages) || len(kept.Leaves)*merkle.HashSize != len(leaves) {
		return fmt.Errorf("%d pages kept, %d on the edge", len(kept.Pages()), len(pages))
	}
	for i, k := range kept.Pages() {
		p := pages[i]
		if k.Seq != p.Seq || k.Ts != p.Ts || k.Count != p.Count || !bytes.Equal(k.Lo, p.Lo) || !bytes.Equal(k.Hi, p.Hi) ||
			(k.Lo == nil) != (p.Lo == nil) || (k.Hi == nil) != (p.Hi == nil) {
			return fmt.Errorf("page %d header or bounds differ", i)
		}
		if !bytes.Equal(kept.Leaves[i], leaves[i*merkle.HashSize:(i+1)*merkle.HashSize]) {
			return fmt.Errorf("page %d leaves differ", i)
		}
		if len(k.KVs) != len(p.KVs) {
			return fmt.Errorf("page %d: %d records kept, %d on the edge", i, len(k.KVs), len(p.KVs))
		}
		for j := range k.KVs {
			if !bytes.Equal(k.KVs[j].Key, p.KVs[j].Key) || k.KVs[j].Ver != p.KVs[j].Ver || k.KVs[j].Value != nil {
				return fmt.Errorf("page %d record %d differs", i, j)
			}
		}
	}
	return nil
}

// TestInstallLevelLeavesIndexUntouchedOnMismatch: pages that do not hash
// to the signed root must not replace the level they were offered for.
func TestInstallLevelLeavesIndexUntouchedOnMismatch(t *testing.T) {
	idx := NewIndex([]int{4})
	good := Merge([]wire.KV{kv("a", 1), kv("b", 2)}, nil, 1, 4, 0, 1)
	roots := [][]byte{LevelTree(good).Root()}
	if err := idx.InstallLevel(1, good, roots, wire.SignedRoot{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	forged := Merge([]wire.KV{kv("a", 1), kv("b", 3)}, nil, 1, 4, 0, 1)
	if err := idx.InstallLevel(1, forged, roots, wire.SignedRoot{Epoch: 2}); err == nil {
		t.Fatal("forged pages installed")
	}
	if !bytes.Equal(encodePages(idx.Pages(1)), encodePages(good)) || idx.Global().Epoch != 1 {
		t.Fatal("failed install changed the index")
	}
	if !bytes.Equal(idx.trees[0].Root(), roots[0]) {
		t.Fatal("leaves no longer match the installed level")
	}
}

var benchPages []wire.Page // keeps the benchmarked call's result alive

// benchLevel builds a level of n sorted records in pages of 100.
func benchLevel(n int, ver uint64) []wire.Page {
	kvs := make([]wire.KV, n)
	for i := range kvs {
		kvs[i] = wire.KV{Key: []byte(fmt.Sprintf("k%08d", i*2)), Value: make([]byte, 128), Ver: ver}
	}
	return Merge(kvs, nil, 1, 100, 0, 1)
}

// BenchmarkMergeSorted is a level-to-level merge: 1,000 sorted source
// records into a 10,000-record destination. Nothing needs sorting.
func BenchmarkMergeSorted(b *testing.B) {
	src, dst := PagesKVs(benchLevel(1000, 2)), benchLevel(10000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPages = Merge(src, dst, 2, 100, 0, 1)
	}
}

// BenchmarkLevelTree is the merge's hashing price: committing a
// 10,000-record level of 128-byte values (LevelTree, every page leaf from
// its records), reported per record — what the cloud pays once per page
// it receives or produces in a merge.
func BenchmarkLevelTree(b *testing.B) {
	pages := benchLevel(10000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LevelTree(pages)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/10000, "ns/record")
}

// BenchmarkPageSliceVerify is what a reader pays per level of a get (cf.
// BenchmarkSliceVerify, per L0 block): the key's page of a 100-page level,
// cut to the key's row and its two neighbours, folded to its leaf, and the
// leaf folded to the level root by a one-page range proof.
func BenchmarkPageSliceVerify(b *testing.B) {
	pages := benchLevel(10000, 1)
	roots := [][]byte{LevelTree(pages).Root()}
	x := NewIndex([]int{1000})
	if err := x.InstallLevel(1, pages, roots, wire.SignedRoot{}); err != nil {
		b.Fatal(err)
	}
	start, end := wire.PointRange(pages[50].KVs[37].Key)
	lp, err := x.LevelRangeProof(1, 50, 51, start, end)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf := PageLeaf(&lp.Pages[0])
		if err := merkle.VerifyRange(roots[0], [][]byte{leaf}, int(lp.First), int(lp.Width), lp.Left, lp.Right); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeL0 is an L0 merge: 16 blocks of 100 puts over 5,000 keys,
// unsorted and with duplicates, into a 5,000-record level.
func BenchmarkMergeL0(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var src []wire.KV
	for i := 0; i < 1600; i++ {
		src = append(src, wire.KV{Key: []byte(fmt.Sprintf("k%08d", r.Intn(5000)*2)), Value: make([]byte, 128), Ver: uint64(i + 10)})
	}
	dst := benchLevel(5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPages = Merge(src, dst, 1, 100, 0, 1)
	}
}
