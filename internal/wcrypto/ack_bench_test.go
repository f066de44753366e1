package wcrypto_test

// Block-ack signature cost across block sizes: the digest-signed format
// must be flat in the size of the block.
// `make bench-micro` runs these; the P2 experiment reports the same sweep
// as a table, and both use bench.AckSweepBlock so the axis has a single
// definition. (External test package: bench imports wcrypto, so the
// shared fixture can only be reached from outside the package.)

import (
	"testing"

	"wedgechain/internal/bench"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func ackBenchBlock(target int) *wire.Block {
	blk := bench.AckSweepBlock(target)
	blk.Freeze()
	wcrypto.BlockDigest(&blk)
	return &blk
}

var ackSizes = []struct {
	name   string
	target int
}{{"1KB", 1 << 10}, {"20KB", 20 << 10}, {"100KB", 100 << 10}}

func BenchmarkBlockAckSignDigest(b *testing.B) {
	k := wcrypto.DeterministicKey("edge-1")
	for _, s := range ackSizes {
		blk := ackBenchBlock(s.target)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wcrypto.SignBlockAck(k, blk.ID, blk.CachedDigest())
			}
		})
	}
}

func BenchmarkBlockAckVerifyDigest(b *testing.B) {
	k := wcrypto.DeterministicKey("edge-1")
	reg := wcrypto.NewRegistry()
	reg.Register(k.ID, k.Pub)
	for _, s := range ackSizes {
		blk := ackBenchBlock(s.target)
		sig := wcrypto.SignBlockAck(k, blk.ID, blk.CachedDigest())
		digest := wcrypto.RecomputedBlockDigest(blk)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reg.ForgetVerified()
				if err := wcrypto.VerifyBlockAck(reg, k.ID, blk.ID, digest, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
