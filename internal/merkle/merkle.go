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

var (
	leafPrefix     = []byte{0x00}
	interiorPrefix = []byte{0x01}
)

// ErrBadProof reports that an audit path failed to reproduce the root.
var ErrBadProof = errors.New("merkle: proof does not verify")

// LeafHash hashes raw leaf content into a leaf node.
func LeafHash(content []byte) []byte {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(content)
	return h.Sum(nil)
}

// interiorHash combines two child nodes.
func interiorHash(left, right []byte) []byte {
	h := sha256.New()
	h.Write(interiorPrefix)
	h.Write(left)
	h.Write(right)
	return h.Sum(nil)
}

// Tree is an immutable Merkle tree over a sequence of leaf hashes.
// Construct with New; the zero value is an empty tree whose root is
// EmptyRoot.
type Tree struct {
	// levels[0] is the leaf row; levels[len-1] is the single root.
	levels [][][]byte
}

// EmptyRoot is the canonical root of a tree with no leaves.
func EmptyRoot() []byte { return LeafHash(nil) }

// New builds a tree over the given leaf hashes (as produced by LeafHash).
// The input slice is not retained.
func New(leaves [][]byte) *Tree {
	t := &Tree{}
	if len(leaves) == 0 {
		return t
	}
	row := make([][]byte, len(leaves))
	copy(row, leaves)
	t.levels = append(t.levels, row)
	for len(row) > 1 {
		next := make([][]byte, 0, (len(row)+1)/2)
		for i := 0; i < len(row); i += 2 {
			if i+1 < len(row) {
				next = append(next, interiorHash(row[i], row[i+1]))
			} else {
				// Odd node promoted unchanged.
				next = append(next, row[i])
			}
		}
		t.levels = append(t.levels, next)
		row = next
	}
	return t
}

// Len returns the number of leaves.
func (t *Tree) Len() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Leaves returns the leaf row the tree was built over. The result must not
// be modified.
func (t *Tree) Leaves() [][]byte {
	if len(t.levels) == 0 {
		return nil
	}
	return t.levels[0]
}

// Root returns the tree root (EmptyRoot for an empty tree). The result
// must not be modified.
func (t *Tree) Root() []byte {
	if len(t.levels) == 0 {
		return EmptyRoot()
	}
	return t.levels[len(t.levels)-1][0]
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
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		row := t.levels[lvl]
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < len(row) {
			path = append(path, row[sib])
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
