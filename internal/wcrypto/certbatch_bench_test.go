package wcrypto

import (
	"fmt"
	"testing"

	"wedgechain/internal/wire"
)

// Micro-benchmarks for batched certificate signatures: one Ed25519
// signature (and verification) covering a contiguous run of block
// digests, against the per-proof cost it replaces. The per-triple
// numbers are what matter — at batch 16 the amortized sign/verify cost
// drops by an order of magnitude, which is where CL1's cloud-side
// certification speedup comes from.

func benchCertBatch(entries int) (KeyPair, *Registry, *wire.BlockCertBatch) {
	k := DeterministicKey("cloud")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	m := &wire.BlockCertBatch{Edge: "edge-1", Start: 1}
	for i := 0; i < entries; i++ {
		m.Digests = append(m.Digests, Digest([]byte(fmt.Sprintf("blk-%d", i))))
	}
	m.CloudSig = SignMsg(k, m)
	return k, reg, m
}

func BenchmarkCertBatchSign(b *testing.B) {
	for _, entries := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			k, _, m := benchCertBatch(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SignMsg(k, m)
			}
		})
	}
}

func BenchmarkCertBatchVerify(b *testing.B) {
	for _, entries := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			k, reg, m := benchCertBatch(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.ForgetVerified()
				if err := VerifyMsg(reg, k.ID, m, m.CloudSig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCertBatchVerifyPerProof is the baseline the batch replaces:
// the same run of digests shipped as individual BlockProofs, each
// carrying its own signature.
func BenchmarkCertBatchVerifyPerProof(b *testing.B) {
	const entries = 16
	k := DeterministicKey("cloud")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	proofs := make([]*wire.BlockProof, entries)
	for i := range proofs {
		p := &wire.BlockProof{Edge: "edge-1", BID: uint64(i + 1), Digest: Digest([]byte(fmt.Sprintf("blk-%d", i)))}
		p.CloudSig = SignMsg(k, p)
		proofs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ForgetVerified()
		for _, p := range proofs {
			if err := VerifyMsg(reg, k.ID, p, p.CloudSig); err != nil {
				b.Fatal(err)
			}
		}
	}
}
