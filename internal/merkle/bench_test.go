package merkle

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for Merkle tree construction, proof generation and
// verification at a typical level width.

func benchLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf("page-%06d", i)))
	}
	return leaves
}

func BenchmarkBuild1000(b *testing.B) {
	leaves := benchLeaves(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(leaves)
	}
}

func BenchmarkVerify1000(b *testing.B) {
	leaves := benchLeaves(1000)
	t := New(leaves)
	root := t.Root()
	path, err := t.proof(371)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(root, leaves[371], 371, 1000, path); err != nil {
			b.Fatal(err)
		}
	}
}
