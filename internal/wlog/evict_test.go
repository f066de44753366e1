package wlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// durableLog returns a log bound to a fresh store under dir holding n
// blocks of four entries each, every block persisted and synced and the
// first certified of them certified, certificates persisted too.
func durableLog(t *testing.T, dir string, keys map[wire.NodeID]wcrypto.KeyPair, reg *wcrypto.Registry, n, certified int) (*Log, *Store) {
	t.Helper()
	l, st, _, _, err := Recover(dir, "edge-1", 4, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*n; i++ {
		e := wire.Entry{Client: "c1", Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%03d", i%7)), Value: bytes.Repeat([]byte{byte(i)}, 50)}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		if _, err := l.Append(e, 0); err != nil {
			t.Fatal(err)
		}
		if blk := l.TryCut(int64(i), false); blk != nil {
			if err := st.AppendBlockBuffered(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for bid := 0; bid < certified; bid++ {
		d, _ := l.Digest(uint64(bid))
		p := wire.BlockProof{Edge: "edge-1", BID: uint64(bid), Digest: d}
		p.CloudSig = wcrypto.SignMsg(keys["cloud"], &p)
		if _, err := l.SetCert(p); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendCertBuffered(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return l, st
}

// canonicals returns every block's canonical bytes, read through Block.
func canonicals(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	for bid := uint64(0); bid < l.NumBlocks(); bid++ {
		blk, err := l.Block(bid)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(blk.Canonical()))
	}
	return out
}

// TestDurableLogEvictsReleasedBlocks: a log bound to its store — here by
// Recover on a directory holding no segment yet — drops the bytes of
// every released block the last Sync covered, and reads each one
// back — through Block, BlockByPos and EntryAt — exactly as it was, with
// its digest re-derived. A released block whose record is not synced yet
// stays until a Release after the Sync.
func TestDurableLogEvictsReleasedBlocks(t *testing.T) {
	keys, reg := persistKeys(t)
	l, st := durableLog(t, t.TempDir(), keys, reg, 6, 6)
	defer st.Close()
	m := obs.NewRegistry()
	reads := m.Counter("wedge_test_segment_reads_total", "")
	resident := m.Gauge("wedge_test_resident_bytes", "")
	l.Instrument(reads, resident)
	want := canonicals(t, l)
	total := 0
	for _, c := range want {
		total += len(c)
	}
	if l.resident != total || resident.Value() != float64(total) {
		t.Fatalf("resident = %d (gauge %v), want %d", l.resident, resident.Value(), total)
	}

	// A block cut after the last Sync is released but not evicted.
	e := wire.Entry{Client: "c1", Seq: 1000, Value: []byte("late")}
	for i := 0; i < 4; i++ {
		e.Seq++
		l.Append(e, 0)
	}
	late := l.TryCut(0, false)
	if err := st.AppendBlockBuffered(late); err != nil {
		t.Fatal(err)
	}
	want = append(want, bytes.Clone(late.Canonical()))
	l.Release(7)
	if got := l.resident; got != len(want[6]) {
		t.Fatalf("resident after release = %d, want the unsynced block's %d", got, len(want[6]))
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Release(7)
	if l.resident != 0 || resident.Value() != 0 {
		t.Fatalf("resident after synced release = %d (gauge %v)", l.resident, resident.Value())
	}

	for bid, c := range want {
		blk, err := l.Block(uint64(bid))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Encoder
		blk.EncodeToUncached(&e)
		if !bytes.Equal(e.Bytes(), c) || !bytes.Equal(blk.Canonical(), c) {
			t.Fatalf("block %d reads back differently", bid)
		}
		if d, _ := l.Digest(uint64(bid)); !bytes.Equal(wcrypto.RecomputedBlockDigest(blk), d) {
			t.Fatalf("block %d reads back with another digest", bid)
		}
	}
	if reads.Value() != uint64(len(want)) {
		t.Fatalf("segment reads = %d, want %d", reads.Value(), len(want))
	}
	for pos := uint64(0); pos < l.NextPos(); pos++ {
		blk, ok := l.BlockByPos(pos)
		if !ok || blk.ID != pos/4 {
			t.Fatalf("BlockByPos(%d) = %v, %v", pos, blk, ok)
		}
		if e, ok := l.EntryAt(pos); !ok || !e.Equal(&blk.Entries[pos%4]) {
			t.Fatalf("EntryAt(%d) = %+v, %v", pos, e, ok)
		}
	}
	if l.CertifiedEntries() != 24 || l.CertifiedBlocks() != 6 {
		t.Fatalf("certified counters: %d entries, %d blocks", l.CertifiedEntries(), l.CertifiedBlocks())
	}
	// Truncation reads the evicted, uncertified tail back to unmark it.
	if removed := l.TruncateUncertified(); removed != 1 {
		t.Fatalf("truncate removed %d", removed)
	}
	if _, dup := l.SeenPos("c1", 1001); dup {
		t.Fatal("truncated evicted block's entries still marked seen")
	}
}

// TestInMemoryLogKeepsReleasedBytes: a log no store is bound to keeps
// every block's bytes however far Release moves.
func TestInMemoryLogKeepsReleasedBytes(t *testing.T) {
	l := New("edge-1", 1)
	for seq := uint64(1); seq <= 3; seq++ {
		l.Append(entry("c", seq), 0)
		l.TryCut(0, false)
	}
	before := l.resident
	l.Release(3)
	if before == 0 || l.resident != before {
		t.Fatalf("resident %d -> %d", before, l.resident)
	}
}

// TestEvictedBlockCorruptionIsAnError flips one byte of a compacted
// block's record in the segment: reading the block back fails with
// ErrCorrupt instead of handing out bytes that contradict its digest.
func TestEvictedBlockCorruptionIsAnError(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	l, st := durableLog(t, dir, keys, reg, 3, 3)
	defer st.Close()
	l.Release(3)
	at := st.blocks[1]
	f, err := os.OpenFile(filepath.Join(dir, segName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := at.off + at.n - 10 // inside the last entry's signature
	f.ReadAt(b, off)
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := l.Block(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Block(1) on a flipped record: %v, want ErrCorrupt", err)
	}
	if _, ok := l.BlockByPos(5); ok {
		t.Fatal("BlockByPos served a flipped record")
	}
	if _, ok := l.EntryAt(5); ok {
		t.Fatal("EntryAt served a flipped record")
	}
	if _, err := l.Block(0); err != nil {
		t.Fatalf("an intact neighbour fails too: %v", err)
	}
}

// TestResetToKeepsEvictedBlocks demotes a durable log holding evicted
// blocks: truncation and the segment rewrite copy them out of the old
// segment, and recovery returns the same blocks, digests and
// certificates. A new segment a crash left half written beside the live
// one is deleted and ignored.
func TestResetToKeepsEvictedBlocks(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	l, st := durableLog(t, dir, keys, reg, 6, 4)
	l.Release(3)
	if !l.blocks[0].Evicted() || !l.blocks[2].Evicted() || l.blocks[3].Evicted() {
		t.Fatal("release did not evict exactly blocks 0-2")
	}
	want := canonicals(t, l)[:4]
	var digests [][]byte
	for bid := uint64(0); bid < 4; bid++ {
		d, _ := l.Digest(bid)
		digests = append(digests, d)
	}
	if removed := l.TruncateUncertified(); removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	if err := st.ResetTo(l); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rewrite left its new segment behind: %v", err)
	}
	// The log stays bound: evicted blocks read back from the new segment.
	if got := canonicals(t, l); len(got) != 4 || !bytes.Equal(got[0], want[0]) {
		t.Fatal("evicted blocks unreadable after the rewrite")
	}
	st.Close()

	// A crash while a later rewrite was writing its new segment.
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte{recBlock, 0, 0, 0, 9, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, st2, blocks, certs, err := Recover(dir, "edge-1", 4, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if blocks != 4 || certs != 4 {
		t.Fatalf("recovered %d blocks / %d certs, want 4/4", blocks, certs)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("recovery kept the stray segment: %v", err)
	}
	for bid, c := range canonicals(t, l2) {
		d, _ := l2.Digest(uint64(bid))
		cert, ok := l2.Cert(uint64(bid))
		if !bytes.Equal(c, want[bid]) || !bytes.Equal(d, digests[bid]) || !ok || !bytes.Equal(cert.Digest, d) {
			t.Fatalf("block %d differs after demotion and recovery", bid)
		}
	}
}
