package wcrypto_test

// Block-ack signature cost across block sizes: the digest-signed format
// must be flat in the size of the block. `make bench-micro` runs these.

import (
	"fmt"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// ackBenchBlock builds a frozen block whose canonical encoding is
// approximately target bytes. Entry count scales down for small targets —
// the per-entry framing (identity, key, signature) would otherwise put a
// 100-entry block past 11 KB. The framing overhead is measured from the
// wire encoding rather than hardcoded, so the sweep tracks format changes.
func ackBenchBlock(target int) *wire.Block {
	entries := target / 256
	if entries < 4 {
		entries = 4
	}
	if entries > 100 {
		entries = 100
	}
	probe := wire.Entry{Client: "c1", Seq: 1, Key: []byte("k00000000"), Ts: 1, Sig: make([]byte, 64)}
	var pe wire.Encoder
	probe.EncodeTo(&pe)
	valSize := target/entries - pe.Len()
	if valSize < 1 {
		valSize = 1
	}
	blk := &wire.Block{Edge: "edge-1", ID: 7, StartPos: 700, Ts: 1}
	for i := 0; i < entries; i++ {
		blk.Entries = append(blk.Entries, wire.Entry{
			Client: "c1",
			Seq:    uint64(i + 1),
			Key:    []byte(fmt.Sprintf("k%08d", i)),
			Value:  make([]byte, valSize),
			Ts:     int64(i),
			Sig:    make([]byte, 64),
		})
	}
	blk.Freeze()
	wcrypto.BlockDigest(blk)
	return blk
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
