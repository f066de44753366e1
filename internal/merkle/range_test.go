package merkle

import (
	"fmt"
	"testing"
)

func rangeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

// TestRangeProofExhaustive checks every (n, begin, end) combination up to
// a tree of 33 leaves — covering perfect trees, odd promotions at several
// depths, full-range, single-leaf and boundary ranges.
func TestRangeProofExhaustive(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := rangeLeaves(n)
		tr := New(leaves)
		root := tr.Root()
		for begin := 0; begin < n; begin++ {
			for end := begin + 1; end <= n; end++ {
				left, right, err := tr.RangeProof(begin, end)
				if err != nil {
					t.Fatalf("n=%d [%d,%d): prove: %v", n, begin, end, err)
				}
				if err := VerifyRange(root, leaves[begin:end], begin, n, left, right); err != nil {
					t.Fatalf("n=%d [%d,%d): verify: %v", n, begin, end, err)
				}
			}
		}
	}
}

// TestRangeProofMatchesSingleLeafProof pins the equivalence with the
// existing single-leaf machinery: a width-1 range proof must accept
// exactly the leaves the single-leaf path accepts.
func TestRangeProofMatchesSingleLeafProof(t *testing.T) {
	const n = 19
	leaves := rangeLeaves(n)
	tr := New(leaves)
	for i := 0; i < n; i++ {
		left, right, err := tr.RangeProof(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRange(tr.Root(), leaves[i:i+1], i, n, left, right); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		path, err := tr.proof(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(left)+len(right) != len(path) {
			t.Fatalf("leaf %d: range proof has %d+%d siblings, single proof %d",
				i, len(left), len(right), len(path))
		}
	}
}

// TestVerifyRangeRejects drives the adversarial cases: a dropped leaf, an
// injected leaf, a shifted position, tampered content, truncated flanks
// and trailing proof garbage must all fail.
func TestVerifyRangeRejects(t *testing.T) {
	const n = 21
	leaves := rangeLeaves(n)
	tr := New(leaves)
	root := tr.Root()
	begin, end := 3, 11
	left, right, err := tr.RangeProof(begin, end)
	if err != nil {
		t.Fatal(err)
	}
	window := func() [][]byte { return append([][]byte(nil), leaves[begin:end]...) }

	t.Run("omitted leaf", func(t *testing.T) {
		w := window()
		w = append(w[:4], w[5:]...)
		if VerifyRange(root, w, begin, n, left, right) == nil {
			t.Fatal("accepted a range with a leaf omitted")
		}
	})
	t.Run("injected leaf", func(t *testing.T) {
		w := window()
		w = append(w[:4], append([][]byte{LeafHash([]byte("forged"))}, w[4:]...)...)
		if VerifyRange(root, w, begin, n, left, right) == nil {
			t.Fatal("accepted a range with an injected leaf")
		}
	})
	t.Run("shifted position", func(t *testing.T) {
		if VerifyRange(root, window(), begin+1, n, left, right) == nil {
			t.Fatal("accepted leaves at the wrong position")
		}
	})
	t.Run("tampered leaf", func(t *testing.T) {
		w := window()
		w[2] = LeafHash([]byte("tampered"))
		if VerifyRange(root, w, begin, n, left, right) == nil {
			t.Fatal("accepted a tampered leaf")
		}
	})
	t.Run("truncated right flank", func(t *testing.T) {
		if len(right) == 0 {
			t.Skip("range has no right flank")
		}
		if VerifyRange(root, window(), begin, n, left, right[:len(right)-1]) == nil {
			t.Fatal("accepted a truncated flank path")
		}
	})
	t.Run("extra flank element", func(t *testing.T) {
		extra := append(append([][]byte(nil), left...), LeafHash([]byte("junk")))
		if VerifyRange(root, window(), begin, n, extra, right) == nil {
			t.Fatal("accepted trailing proof garbage")
		}
	})
	t.Run("wrong width", func(t *testing.T) {
		// Width is a fold-shape parameter (as in the single-leaf Verify):
		// a lie about it is caught whenever it changes the shape. A range
		// ending at the promoted tail does: claiming one more leaf demands
		// a right sibling that cannot exist.
		l, r, err := tr.RangeProof(13, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRange(root, leaves[13:n], 13, n, l, r); err != nil {
			t.Fatal(err)
		}
		if VerifyRange(root, leaves[13:n], 13, n+1, l, r) == nil {
			t.Fatal("accepted a claimed width hiding leaves past the range")
		}
	})
	t.Run("empty range rejected", func(t *testing.T) {
		if _, _, err := tr.RangeProof(5, 5); err == nil {
			t.Fatal("prover accepted an empty range")
		}
		if VerifyRange(root, nil, 5, n, nil, nil) == nil {
			t.Fatal("verifier accepted an empty range")
		}
	})
}
