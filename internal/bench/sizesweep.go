package bench

import (
	"fmt"
	"time"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// BlockAckSizeSweep (P2) measures the cost of one block-ack signature and
// its verification across block sizes. The signature covers BID plus the
// 32-byte block digest: the edge signs the digest it already cached at
// block cut; the client folds the digest it must recompute anyway (for
// the Phase II certification match) into the check. The sweep pins that
// sign and verify stay flat (spread < 2x) from 1 KB to 100 KB. (The
// pre-PR3 full-body format it was first measured against is recorded in
// BENCH_pr3.json.)
func BlockAckSizeSweep(scale Scale) *Table {
	t := &Table{
		ID:     "P2",
		Title:  "Block-ack signature cost vs block size (wall-clock)",
		Header: []string{"Block size", "Digest sign (us)", "Digest verify (us)"},
	}
	iters := 400 / int(scale)
	if iters < 20 {
		iters = 20
	}

	key := wcrypto.DeterministicKey("edge-1")
	reg := wcrypto.NewRegistry()
	reg.Register(key.ID, key.Pub)

	var signs, verifies []float64
	for _, target := range []int{1 << 10, 20 << 10, 100 << 10} {
		blk := AckSweepBlock(target)
		blk.Freeze()
		digest := wcrypto.BlockDigest(&blk)

		// The verify column is the signature check alone — the digest
		// itself is computed once per block for the certification match.
		// Every iteration checks a signature the registry has not seen
		// (a distinct bid), so it times a first verification and not the
		// registry's verified-signature memo.
		sigs := make([][]byte, iters)
		i := 0
		sign := timeOp(iters, func() {
			sigs[i] = wcrypto.SignBlockAck(key, blk.ID+uint64(i), digest)
			i++
		})
		i = 0
		verify := timeOp(iters, func() {
			if err := wcrypto.VerifyBlockAck(reg, key.ID, blk.ID+uint64(i), digest, sigs[i]); err != nil {
				panic(err)
			}
			i++
		})
		signs = append(signs, sign)
		verifies = append(verifies, verify)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f KB", float64(len(blk.Canonical()))/1024),
			f1(sign), f1(verify),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("digest sign spread max/min = %.2fx, digest verify spread = %.2fx (flat target < 2x)",
			spread(signs), spread(verifies)),
		"digest verify is the signature check given the block digest, which is computed once per block for the certification match",
	)
	return t
}

// AckSweepBlock builds a frozen-ready block whose canonical encoding is
// approximately target bytes. Entry count scales down for small targets —
// the per-entry framing (identity, key, signature) would otherwise put a
// 100-entry block past 11 KB. The framing overhead is measured from the
// wire encoding rather than hardcoded, so the sweep tracks format changes.
// Exported because the wcrypto BlockAck* micro-benchmarks sweep the same
// axis and must measure the same block shape.
func AckSweepBlock(target int) wire.Block {
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
	blk := wire.Block{Edge: "edge-1", ID: 7, StartPos: 700, Ts: 1}
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
	return blk
}

// timeOp reports the mean wall-clock microseconds of one call to fn.
func timeOp(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Seconds() * 1e6 / float64(iters)
}

func spread(vs []float64) float64 {
	min, max := vs[0], vs[0]
	for _, v := range vs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max / min
}
