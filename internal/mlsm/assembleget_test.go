package mlsm_test

// A get is the scan of one key: these tests assemble it with
// scan.Assemble over wire.PointRange, against this package's index and L0
// source (an external test package, since scan imports mlsm).

import (
	"bytes"
	"fmt"
	"testing"

	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wire"
)

func installedIndex(t *testing.T, kvs []wire.KV) *mlsm.Index {
	t.Helper()
	x := mlsm.NewIndex([]int{4, 8})
	pages := mlsm.Merge(kvs, nil, 1, 2, 0, 1)
	roots := [][]byte{mlsm.LevelTree(pages).Root(), merkle.New(nil).Root()}
	global := wire.SignedRoot{Edge: "e", Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 9, CloudSig: []byte("sig")}
	if err := x.InstallLevel(1, pages, roots, global); err != nil {
		t.Fatal(err)
	}
	return x
}

func rec(key string, ver uint64) wire.KV {
	return wire.KV{Key: []byte(key), Value: []byte(fmt.Sprintf("v%d", ver)), Ver: ver}
}

// get assembles the point scan of key and reads its answer out of the
// evidence.
func get(key string, reqID uint64, src mlsm.L0Source, x *mlsm.Index) (*wire.ScanResponse, wire.KV, bool) {
	start, end := wire.PointRange([]byte(key))
	resp := scan.Assemble(start, end, reqID, src, x)
	kv, found := scan.PointAnswer(resp)
	return resp, kv, found
}

func TestAssembleGetPrefersL0OverLevels(t *testing.T) {
	x := installedIndex(t, []wire.KV{rec("k", 5)})
	blk := wire.Block{
		Edge: "e", ID: 3, StartPos: 100,
		Entries: []wire.Entry{{Client: "c", Key: []byte("k"), Value: []byte("newer")}},
	}
	src := mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{{}}}
	resp, kv, found := get("k", 1, src, x)
	if !found || !bytes.Equal(kv.Value, []byte("newer")) {
		t.Fatalf("answer = found=%v %q", found, kv.Value)
	}
	if len(resp.Proof.Levels) != 0 || len(resp.Proof.Roots) != 0 || len(resp.Proof.Global.CloudSig) != 0 {
		t.Fatal("L0 hit must not carry level evidence (levels are older)")
	}
	if kv.Ver != 101 {
		t.Fatalf("ver = %d, want position-based 101", kv.Ver)
	}
}

func TestAssembleGetNewestL0VersionWins(t *testing.T) {
	x := mlsm.NewIndex([]int{4})
	mk := func(id uint64, pos uint64, val string) wire.Block {
		return wire.Block{Edge: "e", ID: id, StartPos: pos,
			Entries: []wire.Entry{{Client: "c", Key: []byte("k"), Value: []byte(val)}}}
	}
	src := mlsm.L0Source{
		Blocks: []wire.Block{mk(0, 0, "v0"), mk(1, 1, "v1"), mk(2, 2, "v2")},
		Certs:  make([]wire.BlockProof, 3),
	}
	if _, kv, found := get("k", 1, src, x); !found || string(kv.Value) != "v2" {
		t.Fatalf("answer = %q, want v2", kv.Value)
	}
}

func TestAssembleGetLevelHitCarriesProofChain(t *testing.T) {
	x := installedIndex(t, []wire.KV{rec("a", 1), rec("k", 5), rec("z", 2)})
	resp, kv, found := get("k", 1, mlsm.L0Source{}, x)
	if !found || kv.Ver != 5 {
		t.Fatalf("answer = found=%v ver=%d", found, kv.Ver)
	}
	if len(resp.Proof.Levels) != 1 || len(resp.Proof.Roots) != 2 {
		t.Fatalf("proof shape: %d levels, %d roots", len(resp.Proof.Levels), len(resp.Proof.Roots))
	}
	lp := resp.Proof.Levels[0]
	if len(lp.Pages) != 1 || !lp.Pages[0].Contains([]byte("k")) {
		t.Fatal("proof page does not cover key")
	}
	leaf := mlsm.PageLeaf(&lp.Pages[0])
	if err := merkle.VerifyRange(resp.Proof.Roots[0], [][]byte{leaf}, int(lp.First), int(lp.Width), lp.Left, lp.Right); err != nil {
		t.Fatalf("level proof: %v", err)
	}
	if len(resp.Proof.Global.CloudSig) == 0 {
		t.Fatal("signed global root missing")
	}
}

func TestAssembleGetAbsenceProof(t *testing.T) {
	x := installedIndex(t, []wire.KV{rec("a", 1), rec("z", 2)})
	resp, _, found := get("mmm", 1, mlsm.L0Source{}, x)
	if found {
		t.Fatal("missing key found")
	}
	if len(resp.Proof.Levels) == 0 {
		t.Fatal("absence must present the intersecting page")
	}
	p := resp.Proof.Levels[0].Pages[0]
	if !p.Contains([]byte("mmm")) {
		t.Fatal("intersecting page does not cover the key range")
	}
	for _, kv := range p.KVs {
		if bytes.Equal(kv.Key, []byte("mmm")) {
			t.Fatal("page claims to contain the 'absent' key")
		}
	}
}

func TestAssembleGetEmptyEverything(t *testing.T) {
	x := mlsm.NewIndex([]int{4})
	resp, _, found := get("k", 7, mlsm.L0Source{}, x)
	if found || resp.ReqID != 7 {
		t.Fatalf("resp = %+v", resp)
	}
	if len(resp.Proof.Roots) != 0 || len(resp.Proof.Global.CloudSig) != 0 {
		t.Fatal("empty index must not claim level state")
	}
}

func TestAssembleGetManyKeysSweep(t *testing.T) {
	var kvs []wire.KV
	for i := 0; i < 50; i++ {
		kvs = append(kvs, rec(fmt.Sprintf("key-%03d", i), uint64(i+1)))
	}
	x := installedIndex(t, kvs)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if _, kv, found := get(key, uint64(i), mlsm.L0Source{}, x); !found || kv.Ver != uint64(i+1) {
			t.Fatalf("key %s: found=%v ver=%d", key, found, kv.Ver)
		}
	}
}
