package wlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func persistKeys(t testing.TB) (map[wire.NodeID]wcrypto.KeyPair, *wcrypto.Registry) {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	return keys, reg
}

// buildSegment writes n blocks (with certs for the first certified) into
// dir and returns the blocks.
func buildSegment(t testing.TB, dir string, keys map[wire.NodeID]wcrypto.KeyPair, n, certified int) []wire.Block {
	t.Helper()
	st, err := OpenStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var blocks []wire.Block
	var pos uint64
	for i := 0; i < n; i++ {
		e := wire.Entry{Client: "c1", Seq: uint64(i + 1), Value: []byte{byte(i)}}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		b := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: pos, Entries: []wire.Entry{e}}
		pos++
		if err := st.AppendBlockBuffered(&b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		if i < certified {
			p := wire.BlockProof{Edge: "edge-1", BID: b.ID, Digest: wcrypto.BlockDigest(&b)}
			p.CloudSig = wcrypto.SignMsg(keys["cloud"], &p)
			if err := st.AppendCertBuffered(&p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return blocks
}

func TestRecoverEmptyDir(t *testing.T) {
	_, reg := persistKeys(t)
	l, st, blocks, certs, err := Recover(t.TempDir(), "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if blocks != 0 || certs != 0 || l.NumBlocks() != 0 {
		t.Fatalf("recovered %d/%d from nothing", blocks, certs)
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	want := buildSegment(t, dir, keys, 5, 3)

	l, st, blocks, certs, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if blocks != 5 || certs != 3 {
		t.Fatalf("recovered %d blocks / %d certs, want 5/3", blocks, certs)
	}
	for i, w := range want {
		got, err := l.Block(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Canonical(), w.Canonical()) {
			t.Fatalf("block %d differs after recovery", i)
		}
	}
	if l.CertifiedBlocks() != 3 {
		t.Fatalf("certified = %d", l.CertifiedBlocks())
	}
	if _, ok := l.Cert(2); !ok {
		t.Fatal("cert 2 lost")
	}
	if _, ok := l.Cert(3); ok {
		t.Fatal("phantom cert 3")
	}
	// Position counters continue where the log left off.
	if l.NextPos() != 5 {
		t.Fatalf("NextPos = %d", l.NextPos())
	}
	// Replay defence survives recovery: the same (client, seq) again.
	e := wire.Entry{Client: "c1", Seq: 1, Value: []byte("replay")}
	if _, err := l.Append(e, 0); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("replay after recovery: %v", err)
	}
}

func TestRecoverAppendsContinue(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 2, 2)

	l, st, _, _, err := Recover(dir, "edge-1", 1, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	e := wire.Entry{Client: "c1", Seq: 99, Value: []byte("new")}
	e.Sig = wcrypto.SignMsg(keys["c1"], &e)
	if _, err := l.Append(e, 1); err != nil {
		t.Fatal(err)
	}
	blk := l.TryCut(1, false)
	if blk == nil || blk.ID != 2 {
		t.Fatalf("post-recovery block = %+v", blk)
	}
	if err := st.AppendBlockBuffered(blk); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A second recovery sees the continued history.
	l2, st2, blocks, _, err := Recover(dir, "edge-1", 1, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if blocks != 3 || l2.NumBlocks() != 3 {
		t.Fatalf("second recovery blocks = %d", blocks)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 3, 0)
	path := filepath.Join(dir, "wedgelog.seg")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	l, st, blocks, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if blocks != 2 || l.NumBlocks() != 2 {
		t.Fatalf("recovered %d blocks after torn tail, want 2", blocks)
	}
	// The torn bytes are gone from disk.
	info2, _ := os.Stat(path)
	if info2.Size() >= info.Size()-3 {
		t.Fatal("torn tail not truncated")
	}
}

func TestRecoverRejectsForeignBlocks(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	st, _ := OpenStore(dir, true)
	b := wire.Block{Edge: "edge-OTHER", ID: 0}
	st.AppendBlockBuffered(&b)
	st.Close()
	_ = keys
	if _, _, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign block: err = %v", err)
	}
}

func TestRecoverRejectsForgedCert(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	st, _ := OpenStore(dir, true)
	b := wire.Block{Edge: "edge-1", ID: 0, Entries: []wire.Entry{{Client: "c1", Seq: 1}}}
	st.AppendBlockBuffered(&b)
	p := wire.BlockProof{Edge: "edge-1", BID: 0, Digest: wcrypto.BlockDigest(&b)}
	p.CloudSig = wcrypto.SignMsg(keys["edge-1"], &p) // edge forging the cloud
	st.AppendCertBuffered(&p)
	st.Close()
	if _, _, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged cert: err = %v", err)
	}
}

func TestRecoverRejectsOutOfOrderBlocks(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	st, _ := OpenStore(dir, true)
	e := wire.Entry{Client: "c1", Seq: 1}
	e.Sig = wcrypto.SignMsg(keys["c1"], &e)
	b := wire.Block{Edge: "edge-1", ID: 5, Entries: []wire.Entry{e}}
	st.AppendBlockBuffered(&b)
	st.Close()
	if _, _, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-order block: err = %v", err)
	}
}

func TestRecoverRejectsUnknownRecordKind(t *testing.T) {
	_, reg := persistKeys(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "wedgelog.seg")
	if err := os.WriteFile(path, []byte{9, 0, 0, 0, 1, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

// TestRecoverRejectsOlderDigestFormat: a segment written before the block
// digest became a key-ordered Merkle root stores its blocks under record
// kind 1. Its bytes are intact — what changed is the digest they hash to,
// so its certificates would no longer match — and recovery must say so
// with ErrFormat, not report tampering.
func TestRecoverRejectsOlderDigestFormat(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 2, 1)
	path := filepath.Join(dir, "wedgelog.seg")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg[0] != recBlock {
		t.Fatalf("segment starts with record kind %d", seg[0])
	}
	seg[0] = recBlockV1 // what the previous format wrote there
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err = Recover(dir, "edge-1", 10, reg, "cloud")
	if !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("older-format segment: err = %v, want ErrFormat", err)
	}
}

func TestResetToShrinksSegment(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 5, 2)

	l, st, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	// Demotion path: drop the uncertified tail, rewrite the segment.
	if removed := l.TruncateUncertified(); removed != 3 {
		t.Fatalf("removed = %d", removed)
	}
	if err := st.ResetTo(l); err != nil {
		t.Fatal(err)
	}
	// The node then re-mirrors the divergent history under new block ids
	// 2.. — appends after the reset must recover cleanly.
	e := wire.Entry{Client: "c1", Seq: 100, Value: []byte("new history")}
	e.Sig = wcrypto.SignMsg(keys["c1"], &e)
	nb := wire.Block{Edge: "edge-1", ID: 2, StartPos: 2, Entries: []wire.Entry{e}}
	if err := st.AppendBlockBuffered(&nb); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2, blocks, certs, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatalf("recovery after reset: %v", err)
	}
	defer st2.Close()
	if blocks != 3 || certs != 2 {
		t.Fatalf("recovered %d blocks / %d certs, want 3/2", blocks, certs)
	}
	got, err := l2.Block(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Canonical(), nb.Canonical()) {
		t.Fatal("post-reset block corrupted")
	}
	if l2.CertifiedBlocks() != 2 {
		t.Fatalf("certified = %d", l2.CertifiedBlocks())
	}
}

func TestResetToEmptyLog(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 3, 0)
	l, st, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	l.TruncateUncertified()
	if err := st.ResetTo(l); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if info, err := os.Stat(filepath.Join(dir, "wedgelog.seg")); err != nil || info.Size() != 0 {
		t.Fatalf("segment not emptied: %v %d", err, info.Size())
	}
}

// TestRecoverTornLengthAllocatesNothing: a final record header whose length
// claims more bytes than the segment holds (a torn or flipped length) is a
// torn tail. Recovery keeps every record before it, truncates the header,
// and never allocates the claimed length.
func TestRecoverTornLengthAllocatesNothing(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 3, 2)
	path := filepath.Join(dir, "wedgelog.seg")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recBlock, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, st, blocks, certs, err := Recover(dir, "edge-1", 10, reg, "cloud")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes", alloc)
	}
	if blocks != 3 || certs != 2 || l.NumBlocks() != 3 || l.CertifiedBlocks() != 2 {
		t.Fatalf("recovered %d blocks / %d certs, want 3/2", blocks, certs)
	}
	if info2, _ := os.Stat(path); info2.Size() != info.Size() {
		t.Fatalf("segment is %d bytes after recovery, want %d", info2.Size(), info.Size())
	}
}

// TestRecoverRefillsUncutRuns: the runs a leader promised and recorded
// before their block was cut go back into the cut buffer at their promised
// positions, marked seen; a run its block covers is not refilled, and a
// run that does not continue the log ends the refill. The block count is
// the blocks' alone.
func TestRecoverRefillsUncutRuns(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	blocks := buildSegment(t, dir, keys, 2, 2)
	st, err := OpenStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	covered := wire.Block{Edge: "edge-1", ID: 1, StartPos: 1, Entries: blocks[1].Entries}
	next := wire.Block{Edge: "edge-1", ID: 2, StartPos: 2, Entries: []wire.Entry{{Client: "c1", Seq: 10, Value: []byte("a")}, {Client: "c1", Seq: 11}}}
	after := wire.Block{Edge: "edge-1", ID: 2, StartPos: 4, Entries: []wire.Entry{{Client: "c1", Seq: 12}}}
	gap := wire.Block{Edge: "edge-1", ID: 2, StartPos: 9, Entries: []wire.Entry{{Client: "c1", Seq: 13}}}
	for _, run := range []*wire.Block{&covered, &next, &after, &gap} {
		if err := st.AppendRunBuffered(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	l, st, n, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n != 2 || l.NumBlocks() != 2 || l.BufferLen() != 3 {
		t.Fatalf("recovered %d blocks, log %d blocks and %d buffered; want 2, 2 and 3", n, l.NumBlocks(), l.BufferLen())
	}
	for i, e := range append(next.Entries, after.Entries...) {
		got, ok := l.EntryAt(2 + uint64(i))
		if pos, seen := l.SeenPos(e.Client, e.Seq); !ok || !got.Equal(&e) || !seen || pos != 2+uint64(i) {
			t.Fatalf("position %d holds %+v (seen at %d, %v), want %+v", 2+i, got, pos, seen, e)
		}
	}
	if _, seen := l.SeenPos("c1", 13); seen {
		t.Fatal("a run past a gap was refilled")
	}
}
