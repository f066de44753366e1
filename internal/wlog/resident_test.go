package wlog

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// signedBatch returns a PutBatch of n signed put entries from c1 with
// seqs from seq on.
func signedBatch(keys map[wire.NodeID]wcrypto.KeyPair, seq uint64, n int) *wire.PutBatch {
	m := &wire.PutBatch{Client: "c1"}
	for i := 0; i < n; i++ {
		e := wire.Entry{Client: "c1", Seq: seq + uint64(i), Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte(fmt.Sprintf("value-%d", i))}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		m.Entries = append(m.Entries, e)
	}
	return m
}

// decodeOwned encodes msg into a frame and decodes it back zero-copy, as
// the TCP transport does: the decoded message aliases the returned frame.
func decodeOwned(t *testing.T, msg wire.Message) (wire.Message, []byte) {
	t.Helper()
	frame := wire.EncodeEnvelope(wire.Envelope{From: "c1", To: "edge-1", Msg: msg})
	env, err := wire.DecodeEnvelopeOwned(frame)
	if err != nil {
		t.Fatal(err)
	}
	return env.Msg, frame
}

// ownsItsBytes overwrites buf — the frame or record blk was decoded from —
// and checks that blk's entries, canonical bytes and digest are unchanged.
func ownsItsBytes(t *testing.T, what string, blk *wire.Block, digest, buf []byte) {
	t.Helper()
	canon := bytes.Clone(blk.Canonical())
	for i := range buf {
		buf[i] = 0xA5
	}
	var fromEntries wire.Encoder
	blk.EncodeToUncached(&fromEntries)
	if !bytes.Equal(fromEntries.Bytes(), canon) {
		t.Fatalf("%s: entries changed with the buffer they were decoded from", what)
	}
	if !bytes.Equal(blk.Canonical(), canon) {
		t.Fatalf("%s: canonical bytes changed with the buffer", what)
	}
	if !bytes.Equal(wcrypto.RecomputedBlockDigest(blk), digest) {
		t.Fatalf("%s: digest changed with the buffer", what)
	}
}

// TestFrozenBlockOwnsItsBytes decodes a block's entries zero-copy from a
// buffer — a PutBatch frame, a ReplicateBlock frame, a segment record —
// cuts, installs or restores the block, then overwrites the buffer.
// Freezing re-points the entries into the block's own encoding, so
// nothing the log holds changes and the buffer can be freed.
func TestFrozenBlockOwnsItsBytes(t *testing.T) {
	keys, _ := persistKeys(t)

	msg, frame := decodeOwned(t, signedBatch(keys, 1, 4))
	leader := New("edge-1", 4)
	for _, e := range msg.(*wire.PutBatch).Entries {
		if _, err := leader.Append(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	cut := leader.TryCut(1, false)
	digest, _ := leader.Digest(0)
	ownsItsBytes(t, "cut", cut, digest, frame)

	msg, frame = decodeOwned(t, &wire.ReplicateBlock{Chain: "edge-1", Leader: "edge-1", Block: *cut})
	rb := &msg.(*wire.ReplicateBlock).Block
	follower := New("edge-1", 4)
	if err := follower.InstallBlock(rb, wcrypto.RecomputedBlockDigest(rb)); err != nil {
		t.Fatal(err)
	}
	installed, _ := follower.Block(0)
	ownsItsBytes(t, "installed", installed, digest, frame)

	record := bytes.Clone(cut.Canonical())
	var rec wire.Block
	d := wire.NewDecoderZeroCopy(record)
	rec.DecodeFrom(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	recovered := New("edge-1", 4)
	if err := recovered.restoreBlock(rec); err != nil {
		t.Fatal(err)
	}
	restored, _ := recovered.Block(0)
	ownsItsBytes(t, "restored", restored, digest, record)
}

// TestReleasedBlocksReadBack moves the release frontier past some blocks
// and checks that every read of the log — Block, BlockByPos, EntryAt, the
// certified counters, truncation — sees them exactly as before.
func TestReleasedBlocksReadBack(t *testing.T) {
	keys, _ := persistKeys(t)
	l := New("edge-1", 4)
	msg, _ := decodeOwned(t, signedBatch(keys, 1, 12))
	for _, e := range msg.(*wire.PutBatch).Entries {
		l.Append(e, 0)
		l.TryCut(0, false)
	}
	var want [][]byte
	for bid := uint64(0); bid < l.NumBlocks(); bid++ {
		blk, _ := l.Block(bid)
		var e wire.Encoder
		blk.EncodeToUncached(&e)
		want = append(want, e.Bytes())
	}
	certify(t, l, 0)
	l.Release(2)
	certify(t, l, 1)
	if l.CertifiedEntries() != 8 {
		t.Fatalf("certified entries = %d, want 8", l.CertifiedEntries())
	}
	for bid := uint64(0); bid < l.NumBlocks(); bid++ {
		blk, err := l.Block(bid)
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Encoder
		blk.EncodeToUncached(&e)
		if !bytes.Equal(e.Bytes(), want[bid]) || !bytes.Equal(blk.Canonical(), want[bid]) {
			t.Fatalf("block %d reads back differently after release", bid)
		}
		d, _ := l.Digest(bid)
		if !bytes.Equal(wcrypto.RecomputedBlockDigest(blk), d) {
			t.Fatalf("block %d digest differs after release", bid)
		}
	}
	for pos := uint64(0); pos < l.NextPos(); pos++ {
		blk, ok := l.BlockByPos(pos)
		if !ok || blk.ID != pos/4 {
			t.Fatalf("BlockByPos(%d) = %v, %v", pos, blk, ok)
		}
		e, ok := l.EntryAt(pos)
		if !ok || e.Seq != pos+1 || !bytes.Equal(e.Key, msg.(*wire.PutBatch).Entries[pos].Key) {
			t.Fatalf("EntryAt(%d) = %+v, %v", pos, e, ok)
		}
	}
	if removed := l.TruncateUncertified(); removed != 1 || l.NextPos() != 8 {
		t.Fatalf("truncate: removed %d, next %d", removed, l.NextPos())
	}
}

// TestSeenAcrossDenseAndSparse drives one client's seqs across both halves
// of its seen table — dense seqs, a gap past the slack, a seq far ahead,
// the dense part growing over what was sparse — and checks duplicate
// rejection, SeenPos and TruncateUncertified's unmarking on each.
func TestSeenAcrossDenseAndSparse(t *testing.T) {
	l := New("edge-1", 2)
	far := uint64(1) << 62
	gap := uint64(3 + seenSlack + 5) // sparse when it lands, dense later
	seqs := []uint64{1, 2, 3, gap, far, 4}
	for s := uint64(5); s < gap+4; s++ {
		if s != gap {
			seqs = append(seqs, s)
		}
	}
	seqs = append(seqs, far>>20) // sparse, in a block truncation removes
	for pos, seq := range seqs {
		if _, err := l.Append(entry("c", seq), 0); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		l.TryCut(0, false)
		if pos == 5 {
			certify(t, l, 0)
			certify(t, l, 1)
			certify(t, l, 2)
		}
	}
	tbl := l.seen["c"]
	if uint64(len(tbl.dense)) > gap+4+seenSlack {
		t.Fatalf("dense table holds %d slots for seqs up to %d", len(tbl.dense), gap+3)
	}
	if _, ok := tbl.sparse[far]; !ok {
		t.Fatal("seq 1<<62 not in the sparse part")
	}
	if len(tbl.sparse) != 3 {
		t.Fatalf("sparse part holds %d seqs, want 3", len(tbl.sparse))
	}
	if _, ok := tbl.sparse[gap]; !ok || uint64(len(tbl.dense)) <= gap {
		t.Fatal("dense part did not grow over the gap seq that landed sparse")
	}
	for pos, seq := range seqs {
		if got, ok := l.SeenPos("c", seq); !ok || got != uint64(pos) {
			t.Fatalf("SeenPos(%d) = %d, %v; want %d", seq, got, ok, pos)
		}
		if _, err := l.Append(entry("c", seq), 0); !errors.Is(err, ErrDuplicateEntry) {
			t.Fatalf("seq %d replayed: %v", seq, err)
		}
	}

	// Blocks 0-2 (seqs 1, 2, 3, gap, far, 4) are certified; truncation
	// forgets the rest, dense and sparse alike.
	l.TruncateUncertified()
	for pos, seq := range seqs {
		_, seen := l.SeenPos("c", seq)
		if seen != (pos < 6) {
			t.Fatalf("after truncation seq %d seen = %v", seq, seen)
		}
	}
	for _, seq := range []uint64{gap + 1, gap + 3, 5, far >> 20} {
		if _, err := l.Append(entry("c", seq), 0); err != nil {
			t.Fatalf("truncated seq %d still refused: %v", seq, err)
		}
	}
	if _, err := l.Append(entry("c", far), 0); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("kept seq 1<<62 replayed: %v", err)
	}
}

// BenchmarkLogResidentBytesPerBlock reports what a cut block costs the
// edge in live heap: blocks are cut from decoded 100-entry PutBatch
// frames, the release frontier moves past half of them (as an L0 merge
// does), and the live heap after a forced GC is divided by the blocks.
// It is the log's share of the macro benchmark's heap_bytes_per_put. The
// memory arm is an in-memory log; the durable arm binds the log to a
// segment under a temporary directory and syncs it before the release,
// so the released half leaves memory, and it also reports the live heap
// per block with every block released — what a compacted block costs —
// and the share of that held by the replay table (Log.seen), which does
// not depend on compaction.
func BenchmarkLogResidentBytesPerBlock(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchResident(b, false) })
	b.Run("durable", func(b *testing.B) { benchResident(b, true) })
}

func benchResident(b *testing.B, durable bool) {
	const perBlock = 100
	sig := bytes.Repeat([]byte{0x5A}, 64) // an Ed25519 signature's size
	var st *Store
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := New("edge-1", perBlock)
	if durable {
		_, reg := persistKeys(b)
		var err error
		if l, st, _, _, err = Recover(b.TempDir(), "edge-1", perBlock, reg, "cloud"); err != nil {
			b.Fatal(err)
		}
		defer st.Close()
	}
	for i := 0; i < b.N; i++ {
		batch := &wire.PutBatch{Client: "c1", BatchSig: sig}
		for j := 0; j < perBlock; j++ {
			batch.Entries = append(batch.Entries, wire.Entry{
				Client: "c1", Seq: uint64(i*perBlock + j + 1),
				Key: []byte(fmt.Sprintf("key-%08d", (i*perBlock+j)%5000)), Value: bytes.Repeat([]byte{byte(j)}, 100),
				Sig: sig,
			})
		}
		frame := wire.EncodeEnvelope(wire.Envelope{From: "c1", To: "edge-1", Msg: batch})
		env, err := wire.DecodeEnvelopeOwned(frame)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range env.Msg.(*wire.PutBatch).Entries {
			if _, err := l.Append(e, 0); err != nil {
				b.Fatal(err)
			}
		}
		blk := l.TryCut(0, false)
		if st != nil {
			if err := st.AppendBlockBuffered(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	if st != nil {
		if err := st.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	l.Release(uint64(b.N / 2))
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "live-B/block")
	if durable {
		l.Release(uint64(b.N))
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "live-B/compacted-block")
		// Of which the replay table: 8 bytes per accepted entry, kept in
		// either arm and for as long as the log lives.
		b.ReportMetric(float64(cap(l.seen["c1"].dense)*8)/float64(b.N), "seen-B/block")
	}
	runtime.KeepAlive(l)
}
