package wire

// The key-ordered block commitment and the read evidence cut out of it.
//
// A block's digest commits one Merkle root over its entries in (key,
// index-in-block) order, key-less log entries first:
//
//	leaf   = merkle.LeafHash(key ‖ index ‖ SHA-256(entry encoding))
//	digest = SHA-256(Edge ‖ ID ‖ StartPos ‖ Ts ‖ Count ‖ root)
//
// Because the digest is what certification and the block acknowledgements
// sign, the order inherits their integrity: an edge that commits a root
// over a wrong order, or over entries it does not hold, produces a digest
// no honest recomputation matches — the writer recomputes it from the
// block in its PutResponse, the cloud from the blocks of every merge — and
// the existing lazy machinery convicts.
//
// A read response then carries, per block of the uncompacted L0 window,
// an L0Slice: the rows whose keys fall in the requested range, the one
// leaf on either side of them, and a Merkle range proof. The verifier
// folds that to the root, derives the digest, and binds it to the block's
// certificate (or pins it for the later one) exactly as it would the
// whole block, so the edge saves the bandwidth without gaining a way to
// lie: a row it leaves out breaks the fold or the bracket.
//
// A level page commits the same way, one Merkle root over its records in
// key order, each record's leaf merkle.LeafHash(KV encoding):
//
//	page leaf = merkle.LeafHash(Level ‖ Seq ‖ Lo ‖ Hi ‖ Ts ‖ Count ‖ root)
//
// and a read ships it cut (Page.Cut) to the records in range, one record
// on either side and a range proof. The cut folds to the same leaf as the
// whole page, so the level's Merkle proof binds it unchanged.

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"slices"
	"sort"
	"sync/atomic"

	"wedgechain/internal/merkle"
)

// digestCalls counts block digests computed from contents — whole blocks
// (Block.BodyDigest, Block.Freeze) and slices (L0Slice.Digest) alike.
var digestCalls atomic.Uint64

// DigestCalls reports how many block digests this process has computed
// from block or slice contents. Tests read it before and after a delivery
// to pin "one digest per received block".
func DigestCalls() uint64 { return digestCalls.Load() }

// KeyBefore reports whether an entry key sorts before the half-open range
// starting at start (nil = -infinity). Key-less entries sort before every
// range: they hold no key-value record.
func KeyBefore(key, start []byte) bool {
	return len(key) == 0 || (start != nil && bytes.Compare(key, start) < 0)
}

// KeyAfter reports whether an entry key sorts at or past the exclusive
// end of a range (nil = +infinity).
func KeyAfter(key, end []byte) bool {
	return end != nil && bytes.Compare(key, end) >= 0
}

// PointRange returns the half-open range holding exactly key — [key,
// key‖0x00), the successor being the next byte string in order — so a get
// is the scan of one key and hit, miss and range share one evidence shape.
func PointRange(key []byte) (start, end []byte) {
	end = make([]byte, len(key)+1)
	copy(end, key)
	return end[:len(key):len(key)], end
}

// keyOrder returns the in-block indexes of entries in (key, index) order.
func keyOrder(entries []Entry) []uint32 {
	order := make([]uint32, len(entries))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := bytes.Compare(entries[a].Key, entries[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// leafInto writes the Merkle leaf of the entry with the given key, index
// and entry hash into dst, using e as scratch.
func leafInto(dst []byte, e *Encoder, key []byte, index uint32, entryHash []byte) {
	e.Reset()
	e.Blob(key)
	e.U32(index)
	e.Raw(entryHash)
	merkle.LeafInto(dst, e.Bytes())
}

// entryHash returns SHA-256 of the entry's canonical encoding, using e as
// scratch.
func entryHash(e *Encoder, en *Entry) [sha256.Size]byte {
	e.Reset()
	en.EncodeTo(e)
	return sha256.Sum256(e.Bytes())
}

// hashLeaves fills leaves — and hashes, when non-nil — with the Merkle
// leaf and the entry hash of every entry, laid end to end by sorted
// position.
func hashLeaves(entries []Entry, order []uint32, hashes, leaves []byte) {
	e := GetEncoder()
	for p, i := range order {
		h := entryHash(e, &entries[i])
		if hashes != nil {
			copy(hashes[p*merkle.HashSize:], h[:])
		}
		leafInto(leaves[p*merkle.HashSize:], e, entries[i].Key, i, h[:])
	}
	PutEncoder(e)
}

// blockDigest hashes the digest preimage.
func blockDigest(edge NodeID, id, startPos uint64, ts int64, count uint32, root []byte) []byte {
	e := GetEncoder()
	e.ID(edge)
	e.U64(id)
	e.U64(startPos)
	e.I64(ts)
	e.U32(count)
	e.Blob(root)
	sum := sha256.Sum256(e.Bytes())
	PutEncoder(e)
	return sum[:]
}

// keyIndex is what a serving edge keeps per block of its L0 window to cut
// slices without touching the entries again: the key order, each entry's
// hash by sorted position, and the tree over the leaves.
type keyIndex struct {
	order  []uint32
	hashes []byte
	tree   *merkle.Tree
}

func buildKeyIndex(entries []Entry) *keyIndex {
	digestCalls.Add(1)
	n := len(entries)
	ix := &keyIndex{order: keyOrder(entries), hashes: make([]byte, n*merkle.HashSize)}
	flat := make([]byte, n*merkle.HashSize)
	hashLeaves(entries, ix.order, ix.hashes, flat)
	ix.tree = merkle.NewPacked(flat)
	return ix
}

// rows views hashes laid end to end as one slice per hash.
func rows(flat []byte) [][]byte {
	out := make([][]byte, len(flat)/merkle.HashSize)
	for i := range out {
		out[i] = flat[i*merkle.HashSize : (i+1)*merkle.HashSize]
	}
	return out
}

// keyIndex returns the block's key index: the one a frozen block keeps,
// built first if it was released or never built, or a throwaway for an
// unfrozen block.
func (b *Block) keyIndex() *keyIndex {
	if b.cache == nil {
		return buildKeyIndex(b.Entries)
	}
	if b.cache.index == nil {
		b.cache.index = buildKeyIndex(b.Entries)
	}
	return b.cache.index
}

// SliceFlank stands in for the leaf next to a slice's rows — an entry the
// request did not ask for: its key and in-block index, and the hash of
// its encoding in place of the entry, so evidence size does not depend on
// a neighbour's value.
type SliceFlank struct {
	Key   []byte
	Index uint32
	Hash  []byte // SHA-256 of the entry's canonical encoding
}

// SliceRow is one in-range entry with its index in the block; its version
// is the block's StartPos + Index + 1.
type SliceRow struct {
	Index uint32
	Entry Entry
}

// L0Slice is one block of a served L0 window, cut down to what a request
// for the key range [start, end) needs: the block header and entry count,
// every entry whose key is in range (Rows, in (key, index) order), the
// leaf just before them (Left) and just after (Right), and the Merkle
// range proof of those consecutive leaves, the first at sorted position
// Begin. A flank is absent only at the end of the order: Left when the
// rows start at position 0, Right when they run to Count. With no rows
// the two flanks are adjacent leaves and prove the range empty.
//
// CertSig is the cloud's signature from the block's certificate — the
// BlockProof naming Edge, ID and the digest this slice folds to — or empty
// for a block still in Phase I, whose digest the reader pins instead.
type L0Slice struct {
	Edge      NodeID
	ID        uint64
	StartPos  uint64
	Ts        int64
	Count     uint32
	Begin     uint32
	Left      *SliceFlank
	Rows      []SliceRow
	Right     *SliceFlank
	PathLeft  [][]byte // range-proof flank paths, bottom-up
	PathRight [][]byte
	CertSig   []byte
}

func encodeFlank(e *Encoder, f *SliceFlank) {
	e.Bool(f != nil)
	if f != nil {
		e.Blob(f.Key)
		e.U32(f.Index)
		e.Blob(f.Hash)
	}
}

func decodeFlank(d *Decoder) *SliceFlank {
	if !d.Bool() {
		return nil
	}
	return &SliceFlank{Key: d.Blob(), Index: d.U32(), Hash: d.Blob()}
}

// EncodeTo appends the slice's canonical encoding.
func (s *L0Slice) EncodeTo(e *Encoder) {
	e.ID(s.Edge)
	e.U64(s.ID)
	e.U64(s.StartPos)
	e.I64(s.Ts)
	e.U32(s.Count)
	e.U32(s.Begin)
	encodeFlank(e, s.Left)
	e.U32(uint32(len(s.Rows)))
	for i := range s.Rows {
		e.U32(s.Rows[i].Index)
		s.Rows[i].Entry.EncodeTo(e)
	}
	encodeFlank(e, s.Right)
	appendBlobs(e, s.PathLeft)
	appendBlobs(e, s.PathRight)
	e.Blob(s.CertSig)
}

// DecodeFrom reads the slice.
func (s *L0Slice) DecodeFrom(d *Decoder) {
	s.Edge = d.ID()
	s.ID = d.U64()
	s.StartPos = d.U64()
	s.Ts = d.I64()
	s.Count = d.U32()
	s.Begin = d.U32()
	s.Left = decodeFlank(d)
	s.Rows = decodeSlice(d, minSliceRowSize, func(r *SliceRow, d *Decoder) {
		r.Index = d.U32()
		r.Entry.DecodeFrom(d)
	})
	s.Right = decodeFlank(d)
	s.PathLeft = decodeBlobs(d)
	s.PathRight = decodeBlobs(d)
	s.CertSig = d.Blob()
}

// Cert returns the certificate the slice claims for its block, given the
// digest the slice folds to: verifying CertSig over it is what binds the
// slice to what the cloud certified.
func (s *L0Slice) Cert(digest []byte) BlockProof {
	return BlockProof{Edge: s.Edge, BID: s.ID, Digest: digest, CloudSig: s.CertSig}
}

// Digest folds the shipped leaves and the range proof to the block's
// Merkle root and returns the block digest the slice commits to. Equality
// with a certified digest proves the shipped leaves sit at positions
// [Begin, Begin+shipped) of the order committed at block cut. A proof of
// the wrong shape for Begin and Count is an error.
func (s *L0Slice) Digest() ([]byte, error) {
	digestCalls.Add(1)
	shipped := len(s.Rows)
	if s.Left != nil {
		shipped++
	}
	if s.Right != nil {
		shipped++
	}
	if shipped == 0 {
		// Only a block without entries has nothing to show.
		if s.Count != 0 || len(s.PathLeft)+len(s.PathRight) != 0 {
			return nil, merkle.ErrBadProof
		}
		return blockDigest(s.Edge, s.ID, s.StartPos, s.Ts, 0, merkle.EmptyRoot()), nil
	}
	leaves := rows(make([]byte, shipped*merkle.HashSize))
	e := GetEncoder()
	p := 0
	if f := s.Left; f != nil {
		leafInto(leaves[p], e, f.Key, f.Index, f.Hash)
		p++
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		h := entryHash(e, &r.Entry)
		leafInto(leaves[p], e, r.Entry.Key, r.Index, h[:])
		p++
	}
	if f := s.Right; f != nil {
		leafInto(leaves[p], e, f.Key, f.Index, f.Hash)
	}
	PutEncoder(e)
	root, err := merkle.RangeRoot(leaves, int(s.Begin), int(s.Count), s.PathLeft, s.PathRight)
	if err != nil {
		return nil, err
	}
	return blockDigest(s.Edge, s.ID, s.StartPos, s.Ts, s.Count, root), nil
}

// Slice cuts the evidence a read of [start, end) needs out of the block
// (nil bounds are infinite; a get asks for PointRange(key)). A frozen
// block cuts from the key index it keeps — building it first if it was
// released or never built; an unfrozen block builds one for the call.
func (b *Block) Slice(start, end []byte) L0Slice {
	b = b.Decoded()
	ix := b.keyIndex()
	n := len(ix.order)
	s := L0Slice{Edge: b.Edge, ID: b.ID, StartPos: b.StartPos, Ts: b.Ts, Count: uint32(n)}
	if n == 0 {
		return s
	}
	key := func(p int) []byte { return b.Entries[ix.order[p]].Key }
	lo := sort.Search(n, func(p int) bool { return !KeyBefore(key(p), start) })
	hi := lo + sort.Search(n-lo, func(p int) bool { return KeyAfter(key(lo+p), end) })
	flank := func(p int) *SliceFlank {
		return &SliceFlank{Key: key(p), Index: ix.order[p], Hash: ix.hashes[p*merkle.HashSize : (p+1)*merkle.HashSize]}
	}
	first, last := lo, hi
	if lo > 0 {
		first--
		s.Left = flank(first)
	}
	if hi > lo {
		s.Rows = make([]SliceRow, hi-lo)
		for p := lo; p < hi; p++ {
			s.Rows[p-lo] = SliceRow{Index: ix.order[p], Entry: b.Entries[ix.order[p]]}
		}
	}
	if hi < n {
		s.Right = flank(hi)
		last++
	}
	s.Begin = uint32(first)
	// n > 0 leaves at least one leaf to ship, so the range is never empty.
	s.PathLeft, s.PathRight, _ = ix.tree.RangeProof(first, last)
	return s
}

// LeafInto writes the record's leaf in its page's Merkle tree —
// merkle.LeafHash of the record's encoding — into dst, using e as scratch.
func (kv *KV) LeafInto(dst []byte, e *Encoder) {
	e.Reset()
	e.U8(0) // room for the leaf prefix
	kv.EncodeTo(e)
	merkle.LeafSum(dst, e.Bytes())
}

// Whole reports whether the page ships every record it commits.
func (p *Page) Whole() bool {
	return p.Begin == 0 && int(p.Count) == len(p.KVs) && len(p.PathLeft)+len(p.PathRight) == 0
}

// Leaf returns the Merkle leaf committing the page: its header, record
// count and the root over its records (see the top of this file).
// Committing the bounds is what lets clients verify non-existence from a
// single intersecting page. A whole page folds its records in place; a cut
// one folds them with its range proof and, if that proof does not fold,
// has no leaf (nil, which no level tree holds).
func (p *Page) Leaf() []byte {
	flat := make([]byte, len(p.KVs)*merkle.HashSize)
	e := GetEncoder()
	for i := range p.KVs {
		p.KVs[i].LeafInto(flat[i*merkle.HashSize:], e)
	}
	PutEncoder(e)
	if p.Whole() {
		return p.LeafOf(merkle.PackedRoot(flat))
	}
	root, err := merkle.RangeRoot(rows(flat), int(p.Begin), int(p.Count), p.PathLeft, p.PathRight)
	if err != nil {
		return nil
	}
	return p.LeafOf(root)
}

// LeafOf returns the page's leaf given the root its records fold to — for
// a node that holds its records' leaves already and folds them itself.
func (p *Page) LeafOf(root []byte) []byte {
	e := GetEncoder()
	e.U32(p.Level)
	e.U64(p.Seq)
	e.OptBlob(p.Lo)
	e.OptBlob(p.Hi)
	e.I64(p.Ts)
	e.U32(p.Count)
	e.Blob(root)
	leaf := merkle.LeafHash(e.Bytes())
	PutEncoder(e)
	return leaf
}

// Cut returns the page cut for a read of [start, end) (nil bounds are
// infinite; a get asks for PointRange(key)): the records in range plus the
// one on either side where the page has one, and the range proof — from
// tree, the Merkle tree over the page's record leaves — folding them to
// the page's root. With no record in range the two neighbours prove it
// empty.
func (p *Page) Cut(tree *merkle.Tree, start, end []byte) Page {
	c, n := *p, len(p.KVs)
	if n == 0 {
		return c
	}
	lo := sort.Search(n, func(i int) bool { return !KeyBefore(p.KVs[i].Key, start) })
	hi := lo + sort.Search(n-lo, func(i int) bool { return KeyAfter(p.KVs[lo+i].Key, end) })
	lo, hi = max(lo-1, 0), min(hi+1, n)
	c.Begin, c.KVs = uint32(lo), p.KVs[lo:hi:hi]
	// n > 0 leaves at least one record to ship, so the range is never empty.
	c.PathLeft, c.PathRight, _ = tree.RangeProof(lo, hi)
	return c
}
