package mlsm

import (
	"bytes"
	"fmt"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

// This file hashes the levels a merge moves: every page's leaf, from the
// leaves of its records (wire.KV.LeafInto). Both sides pay it — the cloud
// to check the pages it receives and to sign the level it derives, the
// edge to install that level — so nothing is hashed twice: a derived page
// takes over the leaf of every record it carries (Records), and the cloud
// checks received pages record by record against the hashes it kept of
// them (Hashes.Check) instead of folding them again.

// LevelTree builds the Merkle tree over a level's pages in order.
func LevelTree(pages []wire.Page) *merkle.Tree {
	return merkle.New(HashLevel(pages).Leaves)
}

// Records is a run of records with their leaves in their pages' trees:
// what a node has hashed of a level. The pages a merge derives take the
// leaf of every record they carry over from the run instead of hashing it
// again — a record's leaf is a function of its key, value and version,
// and the run hands a leaf out only for a record equal in all three.
type Records struct {
	pages  []wire.Page
	leaves [][]byte // each page's record leaves, end to end
	p, i   int      // read position: callers ask in key order
}

// leaf returns kv's leaf if the run holds the same record.
func (r *Records) leaf(kv *wire.KV) []byte {
	for ; r.p < len(r.pages); r.p, r.i = r.p+1, 0 {
		kvs := r.pages[r.p].KVs
		for ; r.i < len(kvs); r.i++ {
			h := &kvs[r.i]
			if c := bytes.Compare(h.Key, kv.Key); c >= 0 {
				if c == 0 && h.Ver == kv.Ver && bytes.Equal(h.Value, kv.Value) {
					return r.leaves[r.p][r.i*merkle.HashSize : (r.i+1)*merkle.HashSize]
				}
				return nil
			}
		}
	}
	return nil
}

// hashRecords returns the leaves of each page's records, end to end: each
// taken from the first of runs holding the record, hashed otherwise.
func hashRecords(pages []wire.Page, runs []*Records) [][]byte {
	n := 0
	for i := range pages {
		n += len(pages[i].KVs)
	}
	flat := make([]byte, n*merkle.HashSize)
	out := make([][]byte, len(pages))
	e := wire.GetEncoder()
	for i := range pages {
		kvs := pages[i].KVs
		size := len(kvs) * merkle.HashSize
		out[i], flat = flat[:size:size], flat[size:]
		for j := range kvs {
			leaf := out[i][j*merkle.HashSize : (j+1)*merkle.HashSize]
			if !take(leaf, &kvs[j], runs) {
				kvs[j].LeafInto(leaf, e)
			}
		}
	}
	wire.PutEncoder(e)
	return out
}

// take copies kv's leaf into dst from the first run that holds kv.
func take(dst []byte, kv *wire.KV, runs []*Records) bool {
	for _, r := range runs {
		if leaf := r.leaf(kv); leaf != nil {
			copy(dst, leaf)
			return true
		}
	}
	return false
}

// commitLevel builds the tree of each page of a level over its record
// leaves — hashing only the records runs do not hold — and the level tree
// over the page leaves they root.
func commitLevel(pages []wire.Page, runs ...*Records) ([]*merkle.Tree, *merkle.Tree) {
	records := hashRecords(pages, runs)
	pageTrees := make([]*merkle.Tree, len(pages))
	leaves := make([][]byte, len(pages))
	for i := range pages {
		pageTrees[i] = merkle.NewPacked(records[i])
		leaves[i] = pages[i].LeafOf(pageTrees[i].Root())
	}
	return pageTrees, merkle.New(leaves)
}

// Hashes is what a node that keeps no pages holds of a level: every
// page's leaf and the level root over them, and — so that the pages can
// be checked when they come back as the inputs of the next merge — each
// page's record root and record leaves.
type Hashes struct {
	Leaves  [][]byte // page leaves, in order
	Root    []byte
	roots   [][]byte
	records [][]byte // each page's record leaves, end to end
}

// HashLevel hashes consecutive pages of one level, taking the leaf of
// every record runs hold (see Records) and hashing the rest.
func HashLevel(pages []wire.Page, runs ...*Records) *Hashes {
	h := &Hashes{Leaves: make([][]byte, len(pages)), roots: make([][]byte, len(pages)), records: hashRecords(pages, runs)}
	var scratch []byte
	for i := range pages {
		scratch = append(scratch[:0], h.records[i]...)
		h.roots[i] = append([]byte(nil), merkle.PackedRoot(scratch)...)
		h.Leaves[i] = pages[i].LeafOf(h.roots[i])
	}
	h.Root = merkle.RootOf(h.Leaves)
	return h
}

// Check returns the leaves of pages shipped as the level h was hashed
// from, the run of their records, and an error unless they are exactly
// those pages, whole. A page that is costs one hash per record, whose
// leaves match the kept ones, and one for its header; a page that is not
// is folded to the leaf it does commit to, for the caller to judge what
// was signed.
func (h *Hashes) Check(pages []wire.Page) ([][]byte, *Records, error) {
	records := hashRecords(pages, nil)
	leaves := make([][]byte, len(pages))
	var err error
	if len(pages) != len(h.Leaves) {
		err = fmt.Errorf("%d pages shipped, %d on record", len(pages), len(h.Leaves))
	}
	for i := range pages {
		if i < len(h.Leaves) && pages[i].Whole() && bytes.Equal(records[i], h.records[i]) {
			if leaves[i] = pages[i].LeafOf(h.roots[i]); bytes.Equal(leaves[i], h.Leaves[i]) {
				continue
			}
		}
		leaves[i] = pages[i].Leaf()
		if err == nil {
			err = fmt.Errorf("page %d does not match recorded hash", i)
		}
	}
	return leaves, &Records{pages: pages, leaves: records}, err
}

// records returns the run of level's records with the leaves its page
// trees hold — what a merge into the level or out of it carries over.
func (x *Index) records(level int) *Records {
	r := &Records{pages: x.levels[level-1], leaves: make([][]byte, len(x.pageTrees[level-1]))}
	for i, t := range x.pageTrees[level-1] {
		r.leaves[i] = t.LeafRow()
	}
	return r
}
