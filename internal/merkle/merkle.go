// Package merkle implements the binary Merkle hash tree used by LSMerkle
// levels. A trusted signer (the cloud node) signs the root; an untrusted
// server (the edge node) then proves any leaf's membership to clients with
// an audit path.
//
// Domain separation: leaf hashes and interior hashes use distinct prefixes
// so an interior node can never be confused for a leaf (second-preimage
// hardening). When a level has an odd number of nodes the last node is
// promoted unchanged, so no leaf is ever duplicated.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
)

// HashSize is the byte length of every tree node.
const HashSize = sha256.Size

const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// ErrBadProof reports that an audit path failed to reproduce the root.
var ErrBadProof = errors.New("merkle: proof does not verify")

// LeafHash hashes raw leaf content into a leaf node.
func LeafHash(content []byte) []byte {
	leaf := make([]byte, HashSize)
	LeafInto(leaf, content)
	return leaf
}

// LeafInto writes LeafHash(content) into dst[:HashSize] without allocating
// for the short contents block digests hash by the hundred.
func LeafInto(dst, content []byte) {
	var buf [120]byte
	if len(content) < len(buf) {
		buf[0] = leafPrefix
		sum := sha256.Sum256(buf[:1+copy(buf[1:], content)])
		copy(dst, sum[:])
		return
	}
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(content)
	h.Sum(dst[:0])
}

// LeafSum writes LeafHash(buf[1:]) into dst[:HashSize], overwriting
// buf[0] with the leaf prefix: a caller that encodes a leaf's content
// itself leaves one byte free in front and is spared LeafInto's copy.
func LeafSum(dst, buf []byte) {
	buf[0] = leafPrefix
	sum := sha256.Sum256(buf)
	copy(dst, sum[:])
}

// interiorInto writes the parent of two child nodes into dst[:HashSize];
// dst may alias either child.
func interiorInto(dst, left, right []byte) {
	var buf [1 + 2*HashSize]byte
	buf[0] = interiorPrefix
	copy(buf[1:], left)
	copy(buf[1+HashSize:], right)
	sum := sha256.Sum256(buf[:])
	copy(dst, sum[:])
}

// interiorHash combines two child nodes.
func interiorHash(left, right []byte) []byte {
	node := make([]byte, HashSize)
	interiorInto(node, left, right)
	return node
}

// Tree is an immutable Merkle tree over a sequence of leaf hashes.
// Construct with New or NewPacked; the zero value is an empty tree whose
// root is EmptyRoot.
type Tree struct {
	// rows[0] is the leaf row and rows[len-1] the single root; each row
	// holds its nodes end to end.
	rows [][]byte
}

// EmptyRoot is the canonical root of a tree with no leaves.
func EmptyRoot() []byte { return LeafHash(nil) }

// New builds a tree over the given leaf hashes (as produced by LeafHash,
// HashSize bytes each). Neither the slice nor the hashes are retained.
func New(leaves [][]byte) *Tree {
	flat := make([]byte, len(leaves)*HashSize)
	for i, l := range leaves {
		if len(l) != HashSize {
			panic(fmt.Sprintf("merkle: leaf %d is %d bytes, want %d", i, len(l), HashSize))
		}
		copy(flat[i*HashSize:], l)
	}
	return NewPacked(flat)
}

// NewPacked builds a tree over leaf hashes laid end to end (len(leaves) a
// multiple of HashSize) and keeps them as its leaf row: the caller must
// not modify them afterwards.
func NewPacked(leaves []byte) *Tree {
	t := &Tree{}
	n := len(leaves) / HashSize
	if n == 0 {
		return t
	}
	interior := 0
	for w := n; w > 1; w = (w + 1) / 2 {
		interior += (w + 1) / 2
	}
	store := make([]byte, interior*HashSize)
	row := leaves[: n*HashSize : n*HashSize]
	t.rows = append(t.rows, row)
	for w := n; w > 1; w = (w + 1) / 2 {
		next := store[: (w+1)/2*HashSize : (w+1)/2*HashSize]
		store = store[len(next):]
		for i := 0; 2*i < w; i++ {
			if 2*i+1 < w {
				interiorInto(node(next, i), node(row, 2*i), node(row, 2*i+1))
			} else {
				// Odd node promoted unchanged.
				copy(node(next, i), node(row, 2*i))
			}
		}
		t.rows = append(t.rows, next)
		row = next
	}
	return t
}

// node returns node i of a row.
func node(row []byte, i int) []byte {
	return row[i*HashSize : (i+1)*HashSize : (i+1)*HashSize]
}

// PackedRoot returns the root of the tree over the leaf hashes laid end to
// end in leaves (len(leaves) a multiple of HashSize), folding them in
// place: leaves is scratch afterwards and the result aliases it. It is
// New(...).Root() for a caller that needs no proofs, without the tree.
func PackedRoot(leaves []byte) []byte {
	n := len(leaves) / HashSize
	if n == 0 {
		return EmptyRoot()
	}
	for ; n > 1; n = (n + 1) / 2 {
		for i := 0; 2*i < n; i++ {
			if 2*i+1 < n {
				interiorInto(node(leaves, i), node(leaves, 2*i), node(leaves, 2*i+1))
			} else {
				copy(node(leaves, i), node(leaves, 2*i))
			}
		}
	}
	return node(leaves, 0)
}

// Len returns the number of leaves.
func (t *Tree) Len() int {
	if len(t.rows) == 0 {
		return 0
	}
	return len(t.rows[0]) / HashSize
}

// Leaves returns the leaf row the tree was built over, one hash per leaf.
// The hashes must not be modified.
func (t *Tree) Leaves() [][]byte {
	out := make([][]byte, t.Len())
	for i := range out {
		out[i] = node(t.rows[0], i)
	}
	return out
}

// LeafRow returns the leaf row the tree was built over, hashes end to
// end. The result must not be modified.
func (t *Tree) LeafRow() []byte {
	if len(t.rows) == 0 {
		return nil
	}
	return t.rows[0]
}

// Root returns the tree root (EmptyRoot for an empty tree). The result
// must not be modified.
func (t *Tree) Root() []byte {
	if len(t.rows) == 0 {
		return EmptyRoot()
	}
	return node(t.rows[len(t.rows)-1], 0)
}

// Proof returns the audit path for leaf i: the sibling hashes from the
// leaf row upward. A missing sibling (odd promotion) contributes no path
// element, mirroring the promotion rule in New.
func (t *Tree) Proof(i int) ([][]byte, error) {
	if i < 0 || i >= t.Len() {
		return nil, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", i, t.Len())
	}
	var path [][]byte
	idx := i
	for _, row := range t.rows[:len(t.rows)-1] {
		if sib := idx ^ 1; sib < len(row)/HashSize {
			path = append(path, node(row, sib))
		}
		idx /= 2
	}
	return path, nil
}

// Verify checks that the leaf hash at index i, folded with the audit path,
// reproduces root, for a tree of n leaves. It reimplements the promotion
// rule independently of Tree so clients need no tree state.
func Verify(root, leaf []byte, i, n int, path [][]byte) error {
	if i < 0 || i >= n || n <= 0 {
		return fmt.Errorf("merkle: leaf index %d out of range [0,%d)", i, n)
	}
	cur := leaf
	idx, width := i, n
	pi := 0
	for width > 1 {
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < width {
			if pi >= len(path) {
				return ErrBadProof
			}
			if len(path[pi]) != HashSize {
				return ErrBadProof
			}
			if idx%2 == 0 {
				cur = interiorHash(cur, path[pi])
			} else {
				cur = interiorHash(path[pi], cur)
			}
			pi++
		}
		// else: odd promotion, cur carries upward unchanged.
		idx /= 2
		width = (width + 1) / 2
	}
	if pi != len(path) {
		return ErrBadProof
	}
	if !bytes.Equal(cur, root) {
		return ErrBadProof
	}
	return nil
}

// RootOf is a convenience that builds a tree over leaves and returns its
// root.
func RootOf(leaves [][]byte) []byte { return New(leaves).Root() }
