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

// cloudSide answers a merge request the way the cloud does: it works on
// the bytes that crossed the link, not on the edge's memory.
func cloudSide(t *testing.T, req *wire.MergeRequest, pageCap int, pageSeq uint64, ts int64) (pages []wire.Page, root []byte) {
	t.Helper()
	m, err := wire.DecodeMessage(wire.EncodeMessage(req))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*wire.MergeRequest)
	srcKVs := PagesKVs(got.SrcPages)
	for i := range got.L0Blocks {
		srcKVs = append(srcKVs, BlockKVs(&got.L0Blocks[i])...)
	}
	pages = Merge(srcKVs, got.DstPages, req.FromLevel+1, pageCap, pageSeq, ts)
	return pages, LevelTree(pages).Root()
}

// TestDerivedPagesMatchCloud is the property a data-free merge response
// rests on: from the request it kept and the three values the cloud
// signed, the edge derives pages byte-identical to the cloud's, which
// therefore hash to the cloud's root and install — for L0 and level-to-
// level merges, duplicate keys, an empty destination, and page capacities
// of 1 and 100.
func TestDerivedPagesMatchCloud(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, pageCap := range []int{1, 100} {
			r := rand.New(rand.NewSource(seed))
			idx := NewIndex([]int{2, 4})
			var bid, pos, pageSeq uint64
			roots := [][]byte{idx.Roots()[0], idx.Roots()[1]}
			for round := 0; round < 4; round++ {
				// L0 -> L1 on even rounds (the first into an empty
				// level), L1 -> L2 on odd ones.
				req := &wire.MergeRequest{Edge: "edge-1", ReqID: uint64(round + 1)}
				if round%2 == 0 {
					req.L0Blocks = randomBlocks(r, bid, pos, 1+r.Intn(5), 25)
					bid += uint64(len(req.L0Blocks))
					last := req.L0Blocks[len(req.L0Blocks)-1]
					pos = last.StartPos + uint64(len(last.Entries))
				} else {
					req.FromLevel = 1
					req.SrcPages = idx.Pages(1)
				}
				target := int(req.FromLevel) + 1
				req.DstPages = idx.Pages(target)
				before := wire.EncodeMessage(req)
				ts := int64(1000 + round)

				cloudPages, cloudRoot := cloudSide(t, req, pageCap, pageSeq, ts)

				srcKVs := PagesKVs(req.SrcPages)
				for i := range req.L0Blocks {
					srcKVs = append(srcKVs, BlockKVs(&req.L0Blocks[i])...)
				}
				derived := Merge(srcKVs, req.DstPages, uint32(target), pageCap, pageSeq, ts)
				if !bytes.Equal(encodePages(derived), encodePages(cloudPages)) {
					t.Fatalf("seed %d cap %d round %d: derived pages differ from the cloud's", seed, pageCap, round)
				}
				if want := referenceMerge(srcKVs, req.DstPages, uint32(target), pageCap, pageSeq, ts); !bytes.Equal(encodePages(derived), encodePages(want)) {
					t.Fatalf("seed %d cap %d round %d: pages differ from the reference merge", seed, pageCap, round)
				}
				if !bytes.Equal(wire.EncodeMessage(req), before) {
					t.Fatalf("seed %d cap %d round %d: Merge modified its inputs", seed, pageCap, round)
				}
				roots[target-1] = cloudRoot
				if req.FromLevel > 0 {
					roots[req.FromLevel-1] = LevelTree(nil).Root()
				}
				if err := idx.InstallLevel(target, derived, roots, wire.SignedRoot{Epoch: uint64(round + 1)}); err != nil {
					t.Fatalf("seed %d cap %d round %d: derived pages do not install under the cloud's roots: %v", seed, pageCap, round, err)
				}
				if req.FromLevel > 0 {
					if err := idx.ClearLevel(int(req.FromLevel)); err != nil {
						t.Fatal(err)
					}
				}
				pageSeq += uint64(len(derived))
			}
		}
	}
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
	if !bytes.Equal(merkle.New(idx.Leaves(1)).Root(), roots[0]) {
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
// leaf folded to the level root.
func BenchmarkPageSliceVerify(b *testing.B) {
	pages := benchLevel(10000, 1)
	roots := [][]byte{LevelTree(pages).Root()}
	x := NewIndex([]int{1000})
	if err := x.InstallLevel(1, pages, roots, wire.SignedRoot{}); err != nil {
		b.Fatal(err)
	}
	lp, err := x.LevelProof(1, 50, pages[50].KVs[37].Key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := merkle.Verify(roots[0], PageLeaf(&lp.Page), int(lp.Index), int(lp.Width), lp.Path); err != nil {
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
