package mlsm

import (
	"bytes"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

// This file hashes the levels a merge moves: every page's leaf, from the
// leaves of its records (wire.KV.LeafInto). Both sides pay it — the cloud
// to sign the level it derives, the edge to install that level — and
// nothing is hashed twice: a derived page takes over the leaf of every
// record it carries (Records). The cloud keeps no values, only each
// record's key, version and leaf (Hashes), and merges those.

// LevelTree builds the Merkle tree over a level's pages in order.
func LevelTree(pages []wire.Page) *merkle.Tree {
	leaves, _ := hashLevel(pages, nil)
	return merkle.New(leaves)
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

// hashLevel returns the page leaves of a level and each page's record
// leaves, end to end, folding each page's records without building its
// tree.
func hashLevel(pages []wire.Page, runs []*Records) (leaves, records [][]byte) {
	leaves, records = make([][]byte, len(pages)), hashRecords(pages, runs)
	var scratch []byte
	for i := range pages {
		scratch = append(scratch[:0], records[i]...)
		leaves[i] = pages[i].LeafOf(merkle.PackedRoot(scratch))
	}
	return leaves, records
}

// Hashes is what the cloud keeps of a level in place of its pages: every
// page's header and leaf, the level root, and each record's key, version
// and leaf — no value. A version is a unique log position, so key and
// version name a record and its leaf stands for its value: the next merge
// runs over these records (Pages) and takes over their leaves (Records),
// hashing only the records new from L0. What is kept grows with the
// level's live keys, not with the data written.
type Hashes struct {
	Leaves  [][]byte // page leaves, in order
	Root    []byte
	pages   []wire.Page // records without values
	records [][]byte    // each page's record leaves, end to end
}

// HashLevel hashes consecutive pages of one level, taking the leaf of
// every record runs hold (see Records) and hashing the rest, and keeps the
// pages: in place, values dropped, keys and bounds copied into one buffer
// that lives as long as the level (the pages handed over may alias a frame).
func HashLevel(pages []wire.Page, runs ...*Records) *Hashes {
	leaves, records := hashLevel(pages, runs)
	n := 0
	for i := range pages {
		n += len(pages[i].Lo) + len(pages[i].Hi)
		for j := range pages[i].KVs {
			n += len(pages[i].KVs[j].Key)
		}
	}
	buf := make([]byte, 0, n) // sized to never grow: copies point into it
	own := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		buf = append(buf, b...)
		return buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	for i := range pages {
		p := &pages[i]
		p.Lo, p.Hi = own(p.Lo), own(p.Hi)
		for j := range p.KVs {
			p.KVs[j].Key, p.KVs[j].Value = own(p.KVs[j].Key), nil
		}
	}
	return &Hashes{Leaves: leaves, Root: merkle.RootOf(leaves), pages: pages, records: records}
}

// Pages returns the level as kept: page headers, and each record's key
// and version with no value. Callers must not modify.
func (h *Hashes) Pages() []wire.Page { return h.pages }

// Records returns the run of the kept records and their leaves, for the
// merge that consumes the level to carry over.
func (h *Hashes) Records() *Records { return &Records{pages: h.pages, leaves: h.records} }

// records returns the run of level's records with the leaves its page
// trees hold — what a merge into the level or out of it carries over.
func (x *Index) records(level int) *Records {
	r := &Records{pages: x.levels[level-1], leaves: make([][]byte, len(x.pageTrees[level-1]))}
	for i, t := range x.pageTrees[level-1] {
		r.leaves[i] = t.LeafRow()
	}
	return r
}
