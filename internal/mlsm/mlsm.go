// Package mlsm implements the LSMerkle data structure (Section V of the
// paper): an mLSM-style index combining LSM-tree fast ingestion with
// Merkle-tree trusted access, adapted to WedgeChain's edge-cloud split.
//
// Level 0 is the WedgeChain log (package wlog): blocks double as L0 pages
// and are certified individually through block-certify/block-proof. Levels
// 1..n hold key-sorted pages that partition the keyspace into contiguous
// half-open ranges; each level has a Merkle tree over its pages, and a
// global root (the hash of all level roots) is signed by the cloud with a
// timestamp for freshness checks.
//
// The merge (compaction) computation lives here as pure functions: the
// trusted cloud performs it and signs the resulting roots, and the
// untrusted edge repeats it over the inputs it still holds and installs
// pages that hash to those roots; both sides share one implementation.
package mlsm

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Errors returned by index maintenance.
var (
	ErrLevelRange = errors.New("mlsm: level out of range")
	ErrBadPages   = errors.New("mlsm: pages violate level invariants")
)

// PageLeaf returns the Merkle leaf hash committing a page (wire.Page.Leaf).
func PageLeaf(p *wire.Page) []byte { return p.Leaf() }

// GlobalRoot folds the per-level roots (levels 1..n, in order) into the
// single global root the cloud signs.
func GlobalRoot(roots [][]byte) []byte {
	var e wire.Encoder
	for _, r := range roots {
		e.Blob(r)
	}
	return wcrypto.Digest(e.Bytes())
}

// BlockKVs extracts the key-value writes from a log block. Versions are
// absolute log positions + 1, which are unique and monotonic, so "highest
// version wins" is exactly "latest write wins". Entries without a key
// (pure log records and reservation no-ops) carry no KV.
func BlockKVs(b *wire.Block) []wire.KV {
	kvs := make([]wire.KV, 0, len(b.Entries))
	for i := range b.Entries {
		en := &b.Entries[i]
		if len(en.Key) == 0 {
			continue
		}
		kvs = append(kvs, wire.KV{
			Key:   en.Key,
			Value: en.Value,
			Ver:   b.StartPos + uint64(i) + 1,
		})
	}
	return kvs
}

// dedupeSorted keeps the highest version per key in a key-sorted slice.
func dedupeSorted(kvs []wire.KV) []wire.KV {
	out := kvs[:0]
	for _, kv := range kvs {
		if len(out) > 0 && bytes.Equal(out[len(out)-1].Key, kv.Key) {
			if kv.Ver > out[len(out)-1].Ver {
				out[len(out)-1] = kv
			}
			continue
		}
		out = append(out, kv)
	}
	return out
}

// sortKVs sorts by key, then by descending version. Versions are unique
// log positions, so equal elements are identical records and the sort need
// not be stable.
func sortKVs(kvs []wire.KV) {
	slices.SortFunc(kvs, func(a, b wire.KV) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(b.Ver, a.Ver)
	})
}

// strictlySorted reports whether kvs is in strictly increasing key order —
// sorted with no duplicate keys, as the records of a level always are.
func strictlySorted(kvs []wire.KV) bool {
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			return false
		}
	}
	return true
}

// mergeRuns merges two key-sorted deduped runs, preferring the higher
// version on key collisions.
func mergeRuns(a, b []wire.KV) []wire.KV {
	out := make([]wire.KV, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := bytes.Compare(a[i].Key, b[j].Key); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			if a[i].Ver >= b[j].Ver {
				out = append(out, a[i])
			} else {
				out = append(out, b[j])
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// PagesKVs concatenates the records of consecutive pages of one level.
// Pages are key-sorted and ranges contiguous, so the result is sorted.
func PagesKVs(pages []wire.Page) []wire.KV {
	n := 0
	for i := range pages {
		n += len(pages[i].KVs)
	}
	out := make([]wire.KV, 0, n)
	for i := range pages {
		out = append(out, pages[i].KVs...)
	}
	return out
}

// Merge is the compaction computation: merge the source records (newer)
// into the destination level's pages (older), producing the replacement
// pages for the destination level. It is a pure function of its arguments:
// the cloud runs it and signs the resulting roots, the edge runs it again
// over the same inputs with the pageCap, seqStart and ts the cloud chose,
// and gets the same pages byte for byte. Page ranges partition the
// keyspace: the first page's Lo and last page's Hi are nil (±infinity) and
// interior boundaries are shared, the contiguity invariant clients rely on.
//
// srcKVs may be unsorted and contain duplicates (the concatenation of L0
// block KVs) and is sorted only then: the records of a source level
// arrive sorted already. dst pages must obey level invariants. Neither
// input is modified; the returned pages share one backing array.
func Merge(srcKVs []wire.KV, dst []wire.Page, level uint32, pageCap int, seqStart uint64, ts int64) []wire.Page {
	if pageCap <= 0 {
		pageCap = 1
	}
	src := srcKVs
	if !strictlySorted(src) {
		src = append([]wire.KV(nil), srcKVs...)
		sortKVs(src)
		src = dedupeSorted(src)
	}
	merged := mergeRuns(src, PagesKVs(dst))

	// Split into pages of at most pageCap records.
	var pages []wire.Page
	for start := 0; start < len(merged); start += pageCap {
		end := start + pageCap
		if end > len(merged) {
			end = len(merged)
		}
		pages = append(pages, wire.Page{
			Level: level,
			Seq:   seqStart + uint64(len(pages)),
			Ts:    ts,
			Count: uint32(end - start),
			KVs:   merged[start:end:end],
		})
	}
	if len(pages) == 0 {
		// A level with zero records still needs one full-range page so
		// non-existence proofs have an intersecting page to present.
		pages = append(pages, wire.Page{Level: level, Seq: seqStart, Ts: ts})
	}
	// Assign contiguous half-open ranges.
	for i := range pages {
		if i == 0 {
			pages[i].Lo = nil
		} else {
			pages[i].Lo = pages[i].KVs[0].Key
			pages[i-1].Hi = pages[i].KVs[0].Key
		}
	}
	pages[len(pages)-1].Hi = nil
	return pages
}

// CheckLevel validates a level's invariants: whole pages (a cut is read
// evidence, never a merge input or output), key-sorted records inside
// pages, records inside their page range, ranges contiguous from -inf to
// +inf, and no duplicate keys across the level.
func CheckLevel(pages []wire.Page) error {
	if len(pages) == 0 {
		return fmt.Errorf("%w: empty level", ErrBadPages)
	}
	if pages[0].Lo != nil {
		return fmt.Errorf("%w: first page Lo != -inf", ErrBadPages)
	}
	if pages[len(pages)-1].Hi != nil {
		return fmt.Errorf("%w: last page Hi != +inf", ErrBadPages)
	}
	var prevKey []byte
	havePrev := false
	for i := range pages {
		p := &pages[i]
		if !p.Whole() {
			return fmt.Errorf("%w: page %d is cut", ErrBadPages, i)
		}
		if i > 0 && !bytes.Equal(pages[i-1].Hi, p.Lo) {
			return fmt.Errorf("%w: gap between pages %d and %d", ErrBadPages, i-1, i)
		}
		for j := range p.KVs {
			k := p.KVs[j].Key
			if !p.Contains(k) {
				return fmt.Errorf("%w: key outside page %d range", ErrBadPages, i)
			}
			if havePrev && bytes.Compare(prevKey, k) >= 0 {
				return fmt.Errorf("%w: keys not strictly increasing at page %d", ErrBadPages, i)
			}
			prevKey, havePrev = k, true
		}
	}
	return nil
}

// Index is the edge-resident state for LSMerkle levels 1..n: the pages,
// each page's tree over its records (which reads are cut from, as blocks
// keep theirs), the level trees over the page leaves, the level roots and
// the cloud-signed global root. L0 state lives in the edge node itself
// (the uncompacted suffix of the wlog). Index is not safe for concurrent
// use.
type Index struct {
	thresholds []int // max pages per level, for levels 1..n
	levels     [][]wire.Page
	pageTrees  [][]*merkle.Tree
	trees      []*merkle.Tree
	roots      [][]byte
	global     wire.SignedRoot
}

// NewIndex creates an empty index with the given per-level page thresholds
// for levels 1..n.
func NewIndex(thresholds []int) *Index {
	n := len(thresholds)
	x := &Index{
		thresholds: append([]int(nil), thresholds...),
		levels:     make([][]wire.Page, n),
		pageTrees:  make([][]*merkle.Tree, n),
		trees:      make([]*merkle.Tree, n),
		roots:      make([][]byte, n),
	}
	for i := 0; i < n; i++ {
		x.trees[i] = merkle.New(nil)
		x.roots[i] = x.trees[i].Root()
	}
	return x
}

// Levels returns the number of levels (excluding L0).
func (x *Index) Levels() int { return len(x.levels) }

// Threshold returns the page threshold of level (1-based).
func (x *Index) Threshold(level int) int { return x.thresholds[level-1] }

// Pages returns the pages of level (1-based). Callers must not modify.
func (x *Index) Pages(level int) []wire.Page { return x.levels[level-1] }

// PageCount returns the number of pages in level (1-based).
func (x *Index) PageCount(level int) int { return len(x.levels[level-1]) }

// Roots returns the level roots in order. Callers must not modify.
func (x *Index) Roots() [][]byte { return x.roots }

// Global returns the current signed global root (zero before any merge).
func (x *Index) Global() wire.SignedRoot { return x.global }

// OverThreshold reports whether level (1-based) exceeds its page budget
// and should be merged into level+1.
func (x *Index) OverThreshold(level int) bool {
	return len(x.levels[level-1]) > x.thresholds[level-1]
}

// InstallLevel replaces level (1-based) with the pages of a merge — derived
// by the leader from the cloud's response, or mirrored to a follower — and
// adopts the cloud-signed roots and global root. The pages carry no
// signature of their own: they are accepted only if they obey the level
// invariants and hash to the signed root of their level, and the index is
// left untouched otherwise. When the merge consumed a source level > 0, the
// caller then clears it with ClearLevel.
func (x *Index) InstallLevel(level int, pages []wire.Page, roots [][]byte, global wire.SignedRoot) error {
	if level < 1 || level > len(x.levels) {
		return fmt.Errorf("%w: %d", ErrLevelRange, level)
	}
	if err := CheckLevel(pages); err != nil {
		return err
	}
	if len(roots) != len(x.roots) {
		return fmt.Errorf("%w: %d roots for %d levels", ErrBadPages, len(roots), len(x.roots))
	}
	runs := []*Records{x.records(level)}
	if level > 1 {
		runs = append(runs, x.records(level-1))
	}
	pageTrees, tree := commitLevel(pages, runs...)
	if !bytes.Equal(tree.Root(), roots[level-1]) {
		return fmt.Errorf("%w: cloud level root does not match installed pages", ErrBadPages)
	}
	x.levels[level-1] = append([]wire.Page(nil), pages...)
	x.pageTrees[level-1], x.trees[level-1] = pageTrees, tree
	x.adopt(roots, global)
	return nil
}

// adopt takes a copy of the cloud-signed level roots and global root.
func (x *Index) adopt(roots [][]byte, global wire.SignedRoot) {
	x.roots = make([][]byte, len(roots))
	for i := range roots {
		x.roots[i] = append([]byte(nil), roots[i]...)
	}
	x.global = global
}

// ClearLevel empties level (1-based) after its pages were merged downward.
// The level roots were already adopted via InstallLevel; this only drops
// the page data and rebuilds the (empty) tree, which must match the
// adopted root.
func (x *Index) ClearLevel(level int) error {
	if level < 1 || level > len(x.levels) {
		return fmt.Errorf("%w: %d", ErrLevelRange, level)
	}
	x.levels[level-1], x.pageTrees[level-1] = nil, nil
	x.trees[level-1] = merkle.New(nil)
	if !bytes.Equal(x.trees[level-1].Root(), x.roots[level-1]) {
		return fmt.Errorf("%w: cleared level root mismatch", ErrBadPages)
	}
	return nil
}

// FindPage returns the index of the page of level (1-based) whose range
// contains key, or -1 when the level is empty.
func (x *Index) FindPage(level int, key []byte) int {
	pages := x.levels[level-1]
	if len(pages) == 0 {
		return -1
	}
	// Binary search on Lo: rightmost page with Lo <= key (nil Lo = -inf).
	i := sort.Search(len(pages), func(i int) bool {
		return pages[i].Lo != nil && bytes.Compare(pages[i].Lo, key) > 0
	}) - 1
	if i < 0 {
		i = 0
	}
	if !pages[i].Contains(key) {
		return -1
	}
	return i
}

// PageRange returns the half-open page index range [a, b) of level
// (1-based) whose pages overlap the key range [start, end), where nil
// start means -infinity and nil end means +infinity. It returns (-1, -1)
// when the level holds no pages. For start < end the result is never
// empty: level ranges partition the keyspace, so the page containing
// start always precedes the first page at or beyond end.
func (x *Index) PageRange(level int, start, end []byte) (int, int) {
	pages := x.levels[level-1]
	if len(pages) == 0 {
		return -1, -1
	}
	a := 0
	if start != nil {
		// First page with Hi > start — the page containing start.
		a = sort.Search(len(pages), func(i int) bool {
			return pages[i].Hi == nil || bytes.Compare(pages[i].Hi, start) > 0
		})
	}
	b := len(pages)
	if end != nil {
		// First page with Lo >= end — the first page past the scan.
		b = sort.Search(len(pages), func(i int) bool {
			return pages[i].Lo != nil && bytes.Compare(pages[i].Lo, end) >= 0
		})
	}
	return a, b
}

// LevelRangeProof assembles the multi-page Merkle range proof for pages
// [a, b) of level (1-based), each cut for a read of [start, end): the
// pages plus the two flank paths (merkle.RangeProof).
func (x *Index) LevelRangeProof(level, a, b int, start, end []byte) (wire.LevelRangeProof, error) {
	if level < 1 || level > len(x.levels) {
		return wire.LevelRangeProof{}, fmt.Errorf("%w: %d", ErrLevelRange, level)
	}
	pages := x.levels[level-1]
	if a < 0 || b > len(pages) || a >= b {
		return wire.LevelRangeProof{}, fmt.Errorf("mlsm: page range [%d,%d) out of range in level %d", a, b, level)
	}
	left, right, err := x.trees[level-1].RangeProof(a, b)
	if err != nil {
		return wire.LevelRangeProof{}, err
	}
	lp := wire.LevelRangeProof{
		Level: uint32(level),
		First: uint32(a),
		Width: uint32(x.trees[level-1].Len()),
		Pages: make([]wire.Page, b-a),
		Left:  left,
		Right: right,
	}
	for i := range lp.Pages {
		lp.Pages[i] = pages[a+i].Cut(x.pageTrees[level-1][a+i], start, end)
	}
	return lp, nil
}

// MergeNewest sorts candidate records by key and keeps the highest
// version per key — the newest-wins rule shared by compaction and by
// client-side scan result derivation. The input slice is not retained.
func MergeNewest(kvs []wire.KV) []wire.KV {
	out := append([]wire.KV(nil), kvs...)
	sortKVs(out)
	return dedupeSorted(out)
}

// TotalRecords counts records across levels 1..n (for tests and stats).
func (x *Index) TotalRecords() int {
	n := 0
	for _, lvl := range x.levels {
		for i := range lvl {
			n += len(lvl[i].KVs)
		}
	}
	return n
}
