package mlsm

import (
	"bytes"
	"fmt"
	"testing"

	"wedgechain/internal/merkle"
	"wedgechain/internal/wire"
)

func installedIndex(t *testing.T, kvs []wire.KV) *Index {
	t.Helper()
	x := NewIndex([]int{4, 8})
	pages := Merge(kvs, nil, 1, 2, 0, 1)
	roots := [][]byte{LevelTree(pages).Root(), merkle.New(nil).Root()}
	global := wire.SignedRoot{Edge: "e", Epoch: 1, Root: GlobalRoot(roots), Ts: 9, CloudSig: []byte("sig")}
	if err := x.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestAssembleGetPrefersL0OverLevels(t *testing.T) {
	x := installedIndex(t, []wire.KV{kv("k", 5)})
	blk := wire.Block{
		Edge: "e", ID: 3, StartPos: 100,
		Entries: []wire.Entry{{Client: "c", Key: []byte("k"), Value: []byte("newer")}},
	}
	src := L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{{}}}
	resp := AssembleGet([]byte("k"), 1, src, x)
	if !resp.Found || !bytes.Equal(resp.Value, []byte("newer")) {
		t.Fatalf("resp = found=%v %q", resp.Found, resp.Value)
	}
	if len(resp.Proof.Levels) != 0 {
		t.Fatal("L0 hit must not carry level proofs (levels are older)")
	}
	if resp.Ver != 101 {
		t.Fatalf("ver = %d, want position-based 101", resp.Ver)
	}
}

func TestAssembleGetNewestL0VersionWins(t *testing.T) {
	x := NewIndex([]int{4})
	mk := func(id uint64, pos uint64, val string) wire.Block {
		return wire.Block{Edge: "e", ID: id, StartPos: pos,
			Entries: []wire.Entry{{Client: "c", Key: []byte("k"), Value: []byte(val)}}}
	}
	src := L0Source{
		Blocks: []wire.Block{mk(0, 0, "v0"), mk(1, 1, "v1"), mk(2, 2, "v2")},
		Certs:  make([]wire.BlockProof, 3),
	}
	resp := AssembleGet([]byte("k"), 1, src, x)
	if !resp.Found || string(resp.Value) != "v2" {
		t.Fatalf("resp = %q, want v2", resp.Value)
	}
}

func TestAssembleGetLevelHitCarriesProofChain(t *testing.T) {
	x := installedIndex(t, []wire.KV{kv("a", 1), kv("k", 5), kv("z", 2)})
	resp := AssembleGet([]byte("k"), 1, L0Source{}, x)
	if !resp.Found || resp.Ver != 5 {
		t.Fatalf("resp = found=%v ver=%d", resp.Found, resp.Ver)
	}
	if len(resp.Proof.Levels) == 0 || len(resp.Proof.Roots) != 2 {
		t.Fatalf("proof shape: %d levels, %d roots", len(resp.Proof.Levels), len(resp.Proof.Roots))
	}
	lp := resp.Proof.Levels[0]
	if !lp.Page.Contains([]byte("k")) {
		t.Fatal("proof page does not cover key")
	}
	if err := merkle.Verify(resp.Proof.Roots[0], PageLeaf(&lp.Page), int(lp.Index), int(lp.Width), lp.Path); err != nil {
		t.Fatalf("level proof: %v", err)
	}
	if len(resp.Proof.Global.CloudSig) == 0 {
		t.Fatal("signed global root missing")
	}
}

func TestAssembleGetAbsenceProof(t *testing.T) {
	x := installedIndex(t, []wire.KV{kv("a", 1), kv("z", 2)})
	resp := AssembleGet([]byte("mmm"), 1, L0Source{}, x)
	if resp.Found {
		t.Fatal("missing key found")
	}
	if len(resp.Proof.Levels) == 0 {
		t.Fatal("absence must present the intersecting page")
	}
	lp := resp.Proof.Levels[0]
	if !lp.Page.Contains([]byte("mmm")) {
		t.Fatal("intersecting page does not cover the key range")
	}
	for _, rec := range lp.Page.KVs {
		if bytes.Equal(rec.Key, []byte("mmm")) {
			t.Fatal("page claims to contain the 'absent' key")
		}
	}
}

func TestAssembleGetEmptyEverything(t *testing.T) {
	x := NewIndex([]int{4})
	resp := AssembleGet([]byte("k"), 7, L0Source{}, x)
	if resp.Found || resp.ReqID != 7 {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Proof.Roots) != 0 || len(resp.Proof.Global.CloudSig) != 0 {
		t.Fatal("empty index must not claim level state")
	}
}

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
	if _, _, rec, ok := x.Lookup([]byte("d")); !ok || rec.Ver != 4 {
		t.Fatalf("Lookup(d) = %+v,%v", rec, ok)
	}
	// Replacing with only level 2 empties level 1.
	roots2 := [][]byte{merkle.New(nil).Root(), LevelTree(l2).Root()}
	if err := x.InstallAll(l2, roots2, wire.SignedRoot{Root: GlobalRoot(roots2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := x.Lookup([]byte("a")); ok {
		t.Fatal("emptied level still serving")
	}
	if _, _, _, ok := x.Lookup([]byte("e")); !ok {
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

func TestAssembleGetManyKeysSweep(t *testing.T) {
	var kvs []wire.KV
	for i := 0; i < 50; i++ {
		kvs = append(kvs, kv(fmt.Sprintf("key-%03d", i), uint64(i+1)))
	}
	x := installedIndex(t, kvs)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		resp := AssembleGet(key, uint64(i), L0Source{}, x)
		if !resp.Found || resp.Ver != uint64(i+1) {
			t.Fatalf("key %s: found=%v ver=%d", key, resp.Found, resp.Ver)
		}
	}
}
