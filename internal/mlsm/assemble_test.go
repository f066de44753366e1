package mlsm

import (
	"testing"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

func TestInstallAllReplacesLevels(t *testing.T) {
	x := NewIndex([]int{2, 4})
	l1 := Merge([]wire.KV{kv("a", 1), kv("b", 2)}, nil, 1, 2, 0, 1)
	l2 := Merge([]wire.KV{kv("c", 3), kv("d", 4), kv("e", 5)}, nil, 2, 2, 10, 1)
	var pages []wire.Page
	pages = append(pages, l1...)
	pages = append(pages, l2...)
	roots := [][]byte{LevelTree(l1).Root(), LevelTree(l2).Root()}
	global := wire.SignedRoot{Root: GlobalRoot(roots)}
	if err := x.InstallAll(pages, roots, global); err != nil {
		t.Fatal(err)
	}
	if _, rec, ok := lookup(t, x, []byte("d")); !ok || rec.Ver != 4 {
		t.Fatalf("lookup(d) = %+v,%v", rec, ok)
	}
	// Replacing with only level 2 empties level 1.
	roots2 := [][]byte{merkle.New(nil).Root(), LevelTree(l2).Root()}
	if err := x.InstallAll(l2, roots2, wire.SignedRoot{Root: GlobalRoot(roots2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := lookup(t, x, []byte("a")); ok {
		t.Fatal("emptied level still serving")
	}
	if _, _, ok := lookup(t, x, []byte("e")); !ok {
		t.Fatal("surviving level lost")
	}
}

func TestInstallAllRejectsRootMismatch(t *testing.T) {
	x := NewIndex([]int{2})
	l1 := Merge([]wire.KV{kv("a", 1)}, nil, 1, 2, 0, 1)
	wrong := [][]byte{merkle.LeafHash([]byte("forged"))}
	if err := x.InstallAll(l1, wrong, wire.SignedRoot{}); err == nil {
		t.Fatal("forged roots accepted")
	}
}

func TestInstallAllRejectsBadLevelNumber(t *testing.T) {
	x := NewIndex([]int{2})
	bad := Merge([]wire.KV{kv("a", 1)}, nil, 7, 2, 0, 1) // level 7 of 1
	roots := [][]byte{merkle.New(nil).Root()}
	if err := x.InstallAll(bad, roots, wire.SignedRoot{}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestInstallAllRejectsInvalidLevel(t *testing.T) {
	x := NewIndex([]int{2})
	l1 := Merge([]wire.KV{kv("a", 1), kv("b", 2), kv("c", 3)}, nil, 1, 1, 0, 1)
	l1[1].Lo = []byte("zzz") // break contiguity
	roots := [][]byte{LevelTree(l1).Root()}
	if err := x.InstallAll(l1, roots, wire.SignedRoot{}); err == nil {
		t.Fatal("invariant-violating level accepted")
	}
}
