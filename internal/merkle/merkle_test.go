package merkle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// proof returns the audit path for leaf i: the sibling hashes from the
// leaf row upward. A missing sibling (odd promotion) contributes no path
// element, mirroring the promotion rule in New. It builds what Verify
// checks; readers ship range proofs instead.
func (t *Tree) proof(i int) ([][]byte, error) {
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

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !bytes.Equal(tr.Root(), EmptyRoot()) {
		t.Fatal("empty root mismatch")
	}
}

func TestSingleLeaf(t *testing.T) {
	ls := leaves(1)
	tr := New(ls)
	if !bytes.Equal(tr.Root(), ls[0]) {
		t.Fatal("single-leaf root should be the leaf")
	}
	p, err := tr.proof(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 0 {
		t.Fatalf("single-leaf proof should be empty, got %d elems", len(p))
	}
	if err := Verify(tr.Root(), ls[0], 0, 1, p); err != nil {
		t.Fatal(err)
	}
}

// TestAllProofsVerify exercises every leaf of trees of size 1..33,
// covering both the power-of-two and odd-promotion shapes.
func TestAllProofsVerify(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tr := New(ls)
		for i := 0; i < n; i++ {
			p, err := tr.proof(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: Proof: %v", n, i, err)
			}
			if err := Verify(tr.Root(), ls[i], i, n, p); err != nil {
				t.Fatalf("n=%d i=%d: Verify: %v", n, i, err)
			}
		}
	}
}

func TestProofIndexOutOfRange(t *testing.T) {
	tr := New(leaves(4))
	if _, err := tr.proof(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tr.proof(4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	n := 8
	ls := leaves(n)
	tr := New(ls)
	p, _ := tr.proof(3)
	wrong := LeafHash([]byte("forged"))
	if err := Verify(tr.Root(), wrong, 3, n, p); err == nil {
		t.Fatal("forged leaf accepted")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	n := 8
	ls := leaves(n)
	tr := New(ls)
	p, _ := tr.proof(3)
	if err := Verify(tr.Root(), ls[3], 5, n, p); err == nil {
		t.Fatal("wrong index accepted")
	}
}

func TestVerifyRejectsTamperedPath(t *testing.T) {
	n := 16
	ls := leaves(n)
	tr := New(ls)
	for i := 0; i < n; i++ {
		p, _ := tr.proof(i)
		for j := range p {
			mut := make([][]byte, len(p))
			for k := range p {
				mut[k] = append([]byte{}, p[k]...)
			}
			mut[j][0] ^= 1
			if err := Verify(tr.Root(), ls[i], i, n, mut); err == nil {
				t.Fatalf("i=%d: tampered path element %d accepted", i, j)
			}
		}
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	ls := leaves(7)
	tr := New(ls)
	p, _ := tr.proof(2)
	other := New(leaves(6)).Root()
	if err := Verify(other, ls[2], 2, 7, p); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestVerifyRejectsPathLengthGames(t *testing.T) {
	ls := leaves(9)
	tr := New(ls)
	p, _ := tr.proof(4)
	if err := Verify(tr.Root(), ls[4], 4, 9, p[:len(p)-1]); err == nil {
		t.Fatal("short path accepted")
	}
	long := append(append([][]byte{}, p...), LeafHash([]byte("extra")))
	if err := Verify(tr.Root(), ls[4], 4, 9, long); err == nil {
		t.Fatal("long path accepted")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A two-leaf tree's root must differ from the leaf hash of the
	// concatenation — the prefix bytes must matter.
	a, b := LeafHash([]byte("a")), LeafHash([]byte("b"))
	root := New([][]byte{a, b}).Root()
	concat := append(append([]byte{}, a...), b...)
	if bytes.Equal(root, LeafHash(concat)) {
		t.Fatal("no domain separation between leaf and interior hashes")
	}
}

func TestRootSensitiveToLeafOrder(t *testing.T) {
	ls := leaves(6)
	r1 := RootOf(ls)
	swapped := append([][]byte{}, ls...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	r2 := RootOf(swapped)
	if bytes.Equal(r1, r2) {
		t.Fatal("root insensitive to leaf order")
	}
}

// TestProofPropertyRandom drives random tree sizes and random tampering via
// testing/quick: honest proofs verify; any single-bit corruption of leaf or
// root fails.
func TestProofPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		ls := make([][]byte, n)
		for i := range ls {
			buf := make([]byte, 16)
			r.Read(buf)
			ls[i] = LeafHash(buf)
		}
		tr := New(ls)
		i := r.Intn(n)
		p, err := tr.proof(i)
		if err != nil {
			return false
		}
		if Verify(tr.Root(), ls[i], i, n, p) != nil {
			return false
		}
		// Corrupt the leaf: must fail.
		bad := append([]byte{}, ls[i]...)
		bad[r.Intn(len(bad))] ^= 1 << uint(r.Intn(8))
		if Verify(tr.Root(), bad, i, n, p) == nil {
			return false
		}
		// Corrupt the root: must fail.
		badRoot := append([]byte{}, tr.Root()...)
		badRoot[r.Intn(len(badRoot))] ^= 1 << uint(r.Intn(8))
		return Verify(badRoot, ls[i], i, n, p) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDoesNotAliasInput(t *testing.T) {
	ls := leaves(4)
	tr := New(ls)
	root := append([]byte{}, tr.Root()...)
	ls[0][0] ^= 1 // mutate caller's slice contents
	_ = ls
	// The tree's levels reference the same leaf hash slices; Root was
	// computed before mutation so it must be stable.
	if !bytes.Equal(tr.Root(), root) {
		t.Fatal("root changed after input mutation")
	}
}
