package scan

import (
	"bytes"
	"fmt"
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// fuzzWorld is a consistent edge snapshot: blocks 0–2 compacted into three
// levels, the newest on top (block 2 in level 1, block 1 in level 2, block
// 0 in level 3; pages of four records), under a cloud-signed root whose
// compaction frontier is block 3, and an L0 window of block 3 (certified)
// and block 4 (not yet). Every record of the levels came from the log, so
// the honest answer to any read is a function of the log prefix it
// covers.
type fuzzWorld struct {
	blocks []wire.Block
	l0     mlsm.L0Source
	idx    *mlsm.Index
	params Params
}

func newFuzzWorld(tb testing.TB) *fuzzWorld {
	tb.Helper()
	w := &fuzzWorld{params: Params{Reg: wcrypto.NewRegistry(), Edge: edgeID, Cloud: cloudID}}
	cloud := wcrypto.DeterministicKey(cloudID)
	w.params.Reg.Register(cloudID, cloud.Pub)
	pos := uint64(0)
	for b := 0; b < 5; b++ {
		blk := wire.Block{Edge: edgeID, ID: uint64(b), StartPos: pos, Ts: int64(b)}
		for i := 0; i < 6; i++ {
			en := wire.Entry{Client: "c1", Seq: pos, Value: []byte(fmt.Sprintf("v%d.%d", b, i))}
			if i != 5 { // the last entry of every block is a key-less log record
				en.Key = []byte(fmt.Sprintf("k%02d", (b*7+i*5)%17))
			}
			blk.Entries = append(blk.Entries, en)
			pos++
		}
		blk.Freeze()
		w.blocks = append(w.blocks, blk)
	}
	levels := make([][]wire.Page, 3)
	roots := make([][]byte, 3)
	for lvl := 1; lvl <= 3; lvl++ {
		levels[lvl-1] = mlsm.Merge(mlsm.BlockKVs(&w.blocks[3-lvl]), nil, uint32(lvl), 4, uint64(10*lvl), 10)
		roots[lvl-1] = mlsm.LevelTree(levels[lvl-1]).Root()
	}
	global := wire.SignedRoot{Edge: edgeID, Epoch: 1, Root: mlsm.GlobalRoot(roots), Ts: 10, L0From: 3}
	global.CloudSig = wcrypto.SignMsg(cloud, &global)
	w.idx = mlsm.NewIndex([]int{20, 100, 1000})
	for lvl := 1; lvl <= 3; lvl++ {
		if err := w.idx.InstallLevel(lvl, levels[lvl-1], roots, global); err != nil {
			tb.Fatal(err)
		}
	}
	cert := wire.BlockProof{Edge: edgeID, BID: 3, Digest: wcrypto.BlockDigest(&w.blocks[3])}
	cert.CloudSig = wcrypto.SignMsg(cloud, &cert)
	w.l0 = mlsm.L0Source{Blocks: w.blocks[3:], Certs: []wire.BlockProof{cert, {}}}
	return w
}

// answer is the honest result of a read of [start, end) over the log's
// blocks below upto: the newest version of every key in range.
func (w *fuzzWorld) answer(start, end []byte, upto uint64) []wire.KV {
	var kvs []wire.KV
	for i := uint64(0); i < upto && i < uint64(len(w.blocks)); i++ {
		for _, kv := range mlsm.BlockKVs(&w.blocks[i]) {
			if !wire.KeyBefore(kv.Key, start) && !wire.KeyAfter(kv.Key, end) {
				kvs = append(kvs, kv)
			}
		}
	}
	return mlsm.MergeNewest(kvs)
}

// point assembles the get of key: the scan of its point range.
func (w *fuzzWorld) point(key string) *wire.ScanResponse {
	start, end := wire.PointRange([]byte(key))
	return Assemble(start, end, 1, w.l0, w.idx)
}

// FuzzScanVerify fuzzes the read verifier from the evidence side. The seeds
// are honest scans and gets (point scans) — level pages cut, an L0 window
// of a certified and an uncertified block — and one get with a level-page
// lie, which the fuzzer mutates. Whatever a mutation decodes to,
// verification must not panic, and a response it accepts must derive the
// honest answer for the range it echoes, as of the log prefix its window
// reaches (a window cut short is the stale snapshot the freshness window
// bounds); for a point range that is at most one record, of the requested
// key. The one exception is a response that pinned, for a block it served
// uncertified, a digest other than the block's: that lie comes out when
// the certificate arrives.
func FuzzScanVerify(f *testing.F) {
	w := newFuzzWorld(f)
	for _, r := range [][2]string{{"k03", "k11"}, {"", ""}, {"k05", "k06"}, {"k14", ""}, {"", "k02"}} {
		start, end := []byte(r[0]), []byte(r[1])
		if r[0] == "" {
			start = nil
		}
		if r[1] == "" {
			end = nil
		}
		f.Add(wire.EncodeMessage(Assemble(start, end, 1, w.l0, w.idx)))
	}
	// Gets: k04 hits the L0 window, k05 level 2 (level 3 holds an older
	// version), k06 misses all three levels; the rest as they fall.
	for _, k := range []string{"k00", "k07", "k09", "k16", "k99", "k04", "k05", "k06"} {
		f.Add(wire.EncodeMessage(w.point(k)))
	}
	// A get whose level-2 page drops the key's record: a level-page lie.
	lie := w.point("k05")
	pg := &lie.Proof.Levels[1].Pages[0]
	for i := range pg.KVs {
		if string(pg.KVs[i].Key) == "k05" {
			pg.KVs = append(pg.KVs[:i:i], pg.KVs[i+1:]...)
			break
		}
	}
	f.Add(wire.EncodeMessage(lie))
	lied := func(res Result) bool {
		for id, d := range res.Uncertified {
			if id >= uint64(len(w.blocks)) || !bytes.Equal(d, w.blocks[id].BodyDigest()) {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeMessage(data)
		if err != nil {
			return
		}
		resp, ok := m.(*wire.ScanResponse)
		if !ok {
			return
		}
		res, err := Verify(w.params, resp)
		if err != nil || lied(res) {
			return
		}
		start, end := resp.Start, resp.End
		if want := w.answer(start, end, max(res.L0End, 3)); !sameKVs(res.KVs, want) {
			t.Fatalf("accepted [%q, %q) as %v, the log says %v", start, end, res.KVs, want)
		}
		if wire.IsPointRange(start, end) && (len(res.KVs) > 1 || len(res.KVs) == 1 && !bytes.Equal(res.KVs[0].Key, start)) {
			t.Fatalf("accepted get of %q as %v", start, res.KVs)
		}
	})
}
