package wire

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the wire layer's hot paths (`make bench-micro`).

func benchEnvelope() Envelope {
	return Envelope{From: "c1", To: "edge-1", Msg: &PutResponse{BID: 12, Block: sampleBlock(), EdgeSig: randBytes(64)}}
}

func BenchmarkEncodeEnvelope(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeEnvelope(env)
	}
}

func BenchmarkAppendEnvelopePooled(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		AppendEnvelope(e, env)
		PutEncoder(e)
	}
}

func BenchmarkDecodeEnvelope(b *testing.B) {
	buf := EncodeEnvelope(benchEnvelope())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEnvelopeOwned(b *testing.B) {
	buf := EncodeEnvelope(benchEnvelope())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelopeOwned(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeEncodedSize(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodedSize(env)
	}
}

func BenchmarkBlockCanonicalUnfrozen(b *testing.B) {
	blk := sampleBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Canonical()
	}
}

func BenchmarkBlockCanonicalFrozen(b *testing.B) {
	blk := sampleBlock()
	blk.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Canonical()
	}
}

// digestBenchBlock is a block of n puts shaped like the macro benchmark's:
// 9-byte keys drawn from 20,000, 128-byte values, 64-byte signatures.
func digestBenchBlock(n int) *Block {
	rng := rand.New(rand.NewSource(1))
	blk := &Block{Edge: "edge-1", ID: 7, StartPos: 700, Ts: 1}
	for i := 0; i < n; i++ {
		v, sig := make([]byte, 128), make([]byte, 64)
		rng.Read(v)
		rng.Read(sig)
		blk.Entries = append(blk.Entries, Entry{
			Client: "c3.s1", Seq: uint64(i + 1),
			Key:   []byte(fmt.Sprintf("k%08d", rng.Intn(20000))),
			Value: v, Ts: int64(i), Sig: sig,
		})
	}
	return blk
}

var sinkDigest []byte

// BenchmarkBlockDigest is what every receiver of a whole block pays once:
// sort by key, hash each entry and its leaf, fold to the root.
func BenchmarkBlockDigest(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		blk := digestBenchBlock(n)
		b.Run(fmt.Sprintf("B=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDigest = blk.BodyDigest()
			}
		})
	}
}

// BenchmarkBlockFreeze is what the edge pays once at block cut: the digest
// plus the key index and tree it cuts read slices from.
func BenchmarkBlockFreeze(b *testing.B) {
	blk := digestBenchBlock(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := *blk
		cp.Freeze()
		sinkDigest = cp.CachedDigest()
	}
}
