package merkle

import (
	"bytes"
	"fmt"
)

// RangeProof returns the audit material for the contiguous leaf range
// [begin, end): the sibling hashes flanking the range on the left and on
// the right, each ordered bottom-up. One range proof replaces end-begin
// single-leaf proofs — interior siblings are recomputable from the leaves
// themselves, so only the two flanks travel.
//
// The proof commits to the *positions* of the leaves, not just their
// membership: VerifyRange folds the leaves at exactly [begin, end) of a
// width-n tree, so a prover cannot present a subsequence of leaves as if
// it were contiguous.
func (t *Tree) RangeProof(begin, end int) (left, right [][]byte, err error) {
	if begin < 0 || end > t.Len() || begin >= end {
		return nil, nil, fmt.Errorf("merkle: leaf range [%d,%d) invalid for %d leaves", begin, end, t.Len())
	}
	lo, hi := begin, end
	for _, row := range t.rows[:len(t.rows)-1] {
		if lo%2 == 1 {
			left = append(left, node(row, lo-1))
			lo--
		}
		if hi%2 == 1 && hi < len(row)/HashSize {
			right = append(right, node(row, hi))
			hi++
		}
		// hi odd with hi == len(row): the range's last node is the odd
		// promotion — it carries upward with no sibling.
		lo /= 2
		hi = (hi + 1) / 2
	}
	return left, right, nil
}

// VerifyRange checks that the given leaf hashes, placed at positions
// [begin, begin+len(leaves)) of an n-leaf tree and folded with the left
// and right flank paths, reproduce root. Like Verify, it reimplements the
// odd-promotion rule independently of Tree so clients need no tree state.
func VerifyRange(root []byte, leaves [][]byte, begin, n int, left, right [][]byte) error {
	got, err := RangeRoot(leaves, begin, n, left, right)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return ErrBadProof
	}
	return nil
}

// RangeRoot is the fold inside VerifyRange: the root that the leaf hashes
// at positions [begin, begin+len(leaves)) of an n-leaf tree and the two
// flank paths commit to. A verifier that holds no root to compare against
// — a block digest is derived from this root, not checked against one —
// calls it directly; a proof of the wrong shape is ErrBadProof.
func RangeRoot(leaves [][]byte, begin, n int, left, right [][]byte) ([]byte, error) {
	if n <= 0 || begin < 0 || len(leaves) == 0 || begin+len(leaves) > n {
		return nil, fmt.Errorf("merkle: leaf range [%d,%d) invalid for %d leaves", begin, begin+len(leaves), n)
	}
	row := make([][]byte, 0, len(leaves)+2)
	for _, l := range leaves {
		if len(l) != HashSize {
			return nil, ErrBadProof
		}
		row = append(row, l)
	}
	lo, hi, width := begin, begin+len(leaves), n
	li, ri := 0, 0
	for width > 1 {
		if lo%2 == 1 {
			if li >= len(left) || len(left[li]) != HashSize {
				return nil, ErrBadProof
			}
			row = append(row, nil)
			copy(row[1:], row)
			row[0] = left[li]
			li++
			lo--
		}
		if hi%2 == 1 && hi < width {
			if ri >= len(right) || len(right[ri]) != HashSize {
				return nil, ErrBadProof
			}
			row = append(row, right[ri])
			ri++
			hi++
		}
		// Invariant: lo is even, and hi is even unless hi == width (then
		// the trailing node is the odd promotion).
		next := row[:0]
		for i := 0; i < len(row); i += 2 {
			if i+1 < len(row) {
				next = append(next, interiorHash(row[i], row[i+1]))
			} else {
				next = append(next, row[i])
			}
		}
		row = next
		lo /= 2
		hi = (hi + 1) / 2
		width = (width + 1) / 2
	}
	if li != len(left) || ri != len(right) || len(row) != 1 {
		return nil, ErrBadProof
	}
	return row[0], nil
}
