package cloud

import (
	"fmt"
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// benchBlocks cuts and certifies n blocks of 100 puts of 128-byte values,
// from block id first on, the i-th put (counting across the blocks) to
// key(i).
func (f *fixture) benchBlocks(tb testing.TB, first uint64, n int, key func(i int) int) []wire.Block {
	blocks := make([]wire.Block, n)
	for b := range blocks {
		bid := first + uint64(b)
		blk := wire.Block{Edge: "edge-1", ID: bid, StartPos: bid * 100}
		for i := 0; i < 100; i++ {
			blk.Entries = append(blk.Entries, wire.Entry{Client: "c1", Seq: bid*100 + uint64(i),
				Key: []byte(fmt.Sprintf("k%08d", key(b*100+i))), Value: make([]byte, 128), Sig: make([]byte, 64)})
		}
		f.certify(tb, bid, wcrypto.BlockDigest(&blk))
		blocks[b] = blk
	}
	return blocks
}

// mustMerge sends a merge request and fails unless the cloud merged it.
func (f *fixture) mustMerge(tb testing.TB, m *wire.MergeRequest) {
	tb.Helper()
	if resp := f.merge(tb, m); !resp.OK {
		tb.Fatalf("setup merge rejected: %s", resp.Reason)
	}
}

// BenchmarkCloudMerge times the cloud's side of a compaction from the
// frame it arrives in: decode, block digests, signature check (a memo hit
// after the first iteration), merge, and hashing and keeping the derived
// level. Each iteration merges into the same kept levels.
//
//   - L0: 10 certified blocks of 100 puts, half to keys already there and
//     half to new ones, into a 1,000-record level 1.
//   - level: a 1,000-record level 1, half overlapping, into a
//     5,000-record level 2.
func BenchmarkCloudMerge(b *testing.B) {
	b.Run("L0-10x100-into-1000", func(b *testing.B) {
		f := newFixture(b, Config{Levels: 3, PageCap: 100})
		f.mustMerge(b, &wire.MergeRequest{ReqID: 1, L0Blocks: f.benchBlocks(b, 0, 10, func(i int) int { return 2 * i })})
		benchCloudMerge(b, f, &wire.MergeRequest{ReqID: 2, L0Blocks: f.benchBlocks(b, 10, 10, func(i int) int { return i })})
	})
	b.Run("level-1000-into-5000", func(b *testing.B) {
		f := newFixture(b, Config{Levels: 3, PageCap: 100})
		f.mustMerge(b, &wire.MergeRequest{ReqID: 1, L0Blocks: f.benchBlocks(b, 0, 50, func(i int) int { return 2 * i })})
		f.mustMerge(b, &wire.MergeRequest{ReqID: 2, FromLevel: 1})
		f.mustMerge(b, &wire.MergeRequest{ReqID: 3, L0Blocks: f.benchBlocks(b, 50, 10, func(i int) int { return 5 * i })})
		benchCloudMerge(b, f, &wire.MergeRequest{ReqID: 4, FromLevel: 1})
	})
}

// benchCloudMerge times f's cloud answering m, restoring what it kept of
// the edge before every iteration.
func benchCloudMerge(b *testing.B, f *fixture, m *wire.MergeRequest) {
	m.Edge = "edge-1"
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	frame := wire.EncodeEnvelope(wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	st := f.node.edges["edge-1"]
	levels, consumed := append([]*mlsm.Hashes(nil), st.levels...), st.l0Consumed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(st.levels, levels)
		st.l0Consumed, st.lastMerge = consumed, nil
		env, err := wire.DecodeEnvelopeOwned(frame)
		if err != nil {
			b.Fatal(err)
		}
		out := f.node.Receive(5, env)
		if resp := out[0].Msg.(*wire.MergeResponse); !resp.OK {
			b.Fatalf("merge rejected: %s", resp.Reason)
		}
	}
	b.ReportMetric(float64(len(frame)), "frame-B")
}
