package wlog

import (
	"bytes"
	"errors"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func entry(client wire.NodeID, seq uint64) wire.Entry {
	return wire.Entry{Client: client, Seq: seq, Value: []byte{byte(seq)}}
}

func TestAppendAndCutBatch(t *testing.T) {
	l := New("edge-1", 3)
	for i := uint64(0); i < 3; i++ {
		pos, err := l.Append(entry("c", i), 10)
		if err != nil {
			t.Fatal(err)
		}
		if pos != i {
			t.Fatalf("pos = %d, want %d", pos, i)
		}
	}
	blk := l.TryCut(11, false)
	if blk == nil {
		t.Fatal("full batch did not cut")
	}
	if blk.ID != 0 || blk.StartPos != 0 || len(blk.Entries) != 3 {
		t.Fatalf("block = %+v", blk)
	}
	if l.BufferLen() != 0 {
		t.Fatalf("buffer not drained: %d", l.BufferLen())
	}
	if l.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d", l.NumBlocks())
	}
}

func TestTryCutPartialNeedsForce(t *testing.T) {
	l := New("edge-1", 10)
	l.Append(entry("c", 1), 0)
	if blk := l.TryCut(1, false); blk != nil {
		t.Fatal("partial batch cut without force")
	}
	blk := l.TryCut(1, true)
	if blk == nil || len(blk.Entries) != 1 {
		t.Fatalf("forced cut = %+v", blk)
	}
}

func TestTryCutEmptyForceReturnsNil(t *testing.T) {
	l := New("edge-1", 10)
	if blk := l.TryCut(1, true); blk != nil {
		t.Fatal("cut an empty buffer")
	}
}

func TestBlockIDsMonotonic(t *testing.T) {
	l := New("edge-1", 1)
	for i := uint64(0); i < 5; i++ {
		l.Append(entry("c", i), 0)
		blk := l.TryCut(0, false)
		if blk == nil || blk.ID != i {
			t.Fatalf("block %d = %+v", i, blk)
		}
		if blk.StartPos != i {
			t.Fatalf("StartPos = %d, want %d", blk.StartPos, i)
		}
	}
}

func TestDigestMatchesCanonicalHash(t *testing.T) {
	l := New("edge-1", 1)
	l.Append(entry("c", 1), 0)
	blk := l.TryCut(0, false)
	d, err := l.Digest(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, wcrypto.BlockDigest(blk)) {
		t.Fatal("stored digest != recomputed digest")
	}
}

func TestCertLifecycle(t *testing.T) {
	l := New("edge-1", 2)
	l.Append(entry("c", 1), 0)
	l.Append(entry("c", 2), 0)
	blk := l.TryCut(0, false)
	d, _ := l.Digest(blk.ID)

	if _, ok := l.Cert(blk.ID); ok {
		t.Fatal("uncertified block has a cert")
	}
	proof := wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: d}
	if fresh, err := l.SetCert(proof); err != nil || !fresh {
		t.Fatalf("first SetCert = %v, %v, want fresh", fresh, err)
	}
	if _, ok := l.Cert(blk.ID); !ok {
		t.Fatal("cert not stored")
	}
	if l.CertifiedEntries() != 2 || l.CertifiedBlocks() != 1 {
		t.Fatalf("certified counts = %d/%d", l.CertifiedEntries(), l.CertifiedBlocks())
	}
	// Idempotent re-set must not double-count, and says so.
	if fresh, err := l.SetCert(proof); err != nil || fresh {
		t.Fatalf("second SetCert = %v, %v, want a duplicate", fresh, err)
	}
	if l.CertifiedEntries() != 2 {
		t.Fatalf("re-cert double counted: %d", l.CertifiedEntries())
	}
}

func TestSetCertRejectsWrongDigest(t *testing.T) {
	l := New("edge-1", 1)
	l.Append(entry("c", 1), 0)
	blk := l.TryCut(0, false)
	bad := wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.Digest([]byte("other"))}
	if _, err := l.SetCert(bad); !errors.Is(err, ErrCertDigest) {
		t.Fatalf("err = %v, want ErrCertDigest", err)
	}
}

func TestSetCertUnknownBlock(t *testing.T) {
	l := New("edge-1", 1)
	_, err := l.SetCert(wire.BlockProof{BID: 7})
	if !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestCertifiedThrough(t *testing.T) {
	l := New("edge-1", 1)
	for i := uint64(0); i < 3; i++ {
		l.Append(entry("c", i), 0)
		l.TryCut(0, false)
	}
	if _, ok := l.CertifiedThrough(); ok {
		t.Fatal("nothing certified yet")
	}
	cert := func(bid uint64) {
		d, _ := l.Digest(bid)
		if _, err := l.SetCert(wire.BlockProof{Edge: "edge-1", BID: bid, Digest: d}); err != nil {
			t.Fatal(err)
		}
	}
	cert(0)
	cert(2) // gap at 1
	got, ok := l.CertifiedThrough()
	if !ok || got != 0 {
		t.Fatalf("CertifiedThrough = %d,%v want 0,true", got, ok)
	}
	cert(1)
	got, ok = l.CertifiedThrough()
	if !ok || got != 2 {
		t.Fatalf("CertifiedThrough = %d,%v want 2,true", got, ok)
	}
}

func TestDuplicateEntryRejected(t *testing.T) {
	l := New("edge-1", 10)
	if _, err := l.Append(entry("c", 7), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(entry("c", 7), 0); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("replayed entry: err = %v", err)
	}
	// Same seq from another client is fine.
	if _, err := l.Append(entry("other", 7), 0); err != nil {
		t.Fatal(err)
	}
}

func TestReservationFlow(t *testing.T) {
	l := New("edge-1", 4)
	start := l.Reserve("c", 2, 100)
	if start != 0 {
		t.Fatalf("Reserve start = %d", start)
	}
	// Unreserved entry lands after the reserved slots.
	pos, err := l.Append(entry("other", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 2 {
		t.Fatalf("unreserved pos = %d, want 2", pos)
	}
	// Entry signed for position 1 (Pos is position+1).
	e := entry("c", 5)
	e.Pos = 2
	pos, err = l.Append(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 1 {
		t.Fatalf("reserved pos = %d, want 1", pos)
	}
	// Replay to the same position must fail.
	e2 := entry("c", 6)
	e2.Pos = 2
	if _, err := l.Append(e2, 0); !errors.Is(err, ErrPositionTaken) {
		t.Fatalf("replay err = %v", err)
	}
	// Wrong client for a reserved slot must fail.
	e3 := entry("other", 9)
	e3.Pos = 1
	if _, err := l.Append(e3, 0); !errors.Is(err, ErrPositionInvalid) {
		t.Fatalf("wrong client err = %v", err)
	}
}

func TestReservationExpiryBecomesNoop(t *testing.T) {
	l := New("edge-1", 2)
	l.Reserve("c", 1, 50) // expires at t=50
	l.Append(entry("other", 1), 0)
	// Before expiry the block must not cut (hole in the prefix).
	if blk := l.TryCut(10, false); blk != nil {
		t.Fatal("cut across an unexpired reservation")
	}
	blk := l.TryCut(60, false)
	if blk == nil {
		t.Fatal("expired reservation blocked the cut")
	}
	if !IsNoop(&blk.Entries[0]) {
		t.Fatalf("expired slot not a no-op: %+v", blk.Entries[0])
	}
	if IsNoop(&blk.Entries[1]) {
		t.Fatal("real entry marked no-op")
	}
}

func TestReservedPositionAfterCutRejected(t *testing.T) {
	l := New("edge-1", 1)
	l.Reserve("c", 1, 5)
	blk := l.TryCut(10, false) // reservation expired, cut as no-op
	if blk == nil {
		t.Fatal("no cut")
	}
	e := entry("c", 1)
	e.Pos = 1
	if _, err := l.Append(e, 11); !errors.Is(err, ErrPositionCut) {
		t.Fatalf("late reserved entry: err = %v", err)
	}
}

func TestBlockLookupErrors(t *testing.T) {
	l := New("edge-1", 1)
	if _, err := l.Block(0); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("Block(0) err = %v", err)
	}
	if _, err := l.Digest(0); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("Digest(0) err = %v", err)
	}
}

func certify(t *testing.T, l *Log, bid uint64) {
	t.Helper()
	d, err := l.Digest(bid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SetCert(wire.BlockProof{Edge: l.Edge(), BID: bid, Digest: d}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateUncertified(t *testing.T) {
	l := New("edge-1", 2)
	for i := uint64(1); i <= 8; i++ {
		if _, err := l.Append(entry("c", i), 0); err != nil {
			t.Fatal(err)
		}
		l.TryCut(0, false)
	}
	l.Append(entry("c", 9), 0) // buffered, uncut
	// Certify 0, 1 and 3 — block 2 is the gap, so 3 is stranded above
	// the contiguous prefix and must go too.
	certify(t, l, 0)
	certify(t, l, 1)
	certify(t, l, 3)

	removed := l.TruncateUncertified()
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if l.NumBlocks() != 2 || l.BufferLen() != 0 || l.NextPos() != 4 {
		t.Fatalf("after truncate: blocks=%d buf=%d next=%d", l.NumBlocks(), l.BufferLen(), l.NextPos())
	}
	if l.CertifiedBlocks() != 2 || l.CertifiedEntries() != 4 {
		t.Fatalf("certified counts = %d/%d", l.CertifiedBlocks(), l.CertifiedEntries())
	}
	if _, ok := l.Cert(3); ok {
		t.Fatal("stranded cert survived truncation")
	}
	if _, err := l.Digest(2); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("digest 2 survived: %v", err)
	}
	// Entries in kept blocks stay replay-protected…
	if _, err := l.Append(entry("c", 1), 0); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("kept entry replayable: %v", err)
	}
	// …while truncated entries (cut and buffered) become acceptable again.
	for _, seq := range []uint64{5, 9} {
		if _, err := l.Append(entry("c", seq), 0); err != nil {
			t.Fatalf("truncated seq %d still refused: %v", seq, err)
		}
	}
}

func TestTruncateUncertifiedMirrorRestartable(t *testing.T) {
	// After truncation a follower must be able to InstallBlock the
	// refetched history: next id and positions line up.
	l := New("edge-1", 2)
	for i := uint64(1); i <= 4; i++ {
		l.Append(entry("c", i), 0)
	}
	l.TryCut(0, false)
	l.TryCut(0, false)
	certify(t, l, 0)
	d1, _ := l.Digest(1)
	blk1, _ := l.Block(1)
	refetch := *blk1
	refetch.Entries = append([]wire.Entry(nil), blk1.Entries...)

	if removed := l.TruncateUncertified(); removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	if err := l.InstallBlock(&refetch, d1); err != nil {
		t.Fatalf("refetched install: %v", err)
	}
	if l.NumBlocks() != 2 || l.NextPos() != 4 {
		t.Fatalf("after reinstall: blocks=%d next=%d", l.NumBlocks(), l.NextPos())
	}
}

func TestTruncateUncertifiedNothingCertified(t *testing.T) {
	l := New("edge-1", 2)
	l.Append(entry("c", 1), 0)
	l.Append(entry("c", 2), 0)
	l.TryCut(0, false)
	if removed := l.TruncateUncertified(); removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	if l.NumBlocks() != 0 || l.NextPos() != 0 {
		t.Fatalf("log not empty: blocks=%d next=%d", l.NumBlocks(), l.NextPos())
	}
}

// certifiedPrefix is CertifiedThrough by its definition: walk from block 0.
func certifiedPrefix(l *Log) uint64 {
	var n uint64
	for n < l.NumBlocks() {
		if _, ok := l.Cert(n); !ok {
			break
		}
		n++
	}
	return n
}

// checkCertCursor asserts that CertifiedThrough answers by the definition
// and that its cursor rests exactly on the certified prefix afterwards.
func checkCertCursor(t *testing.T, l *Log, when string) {
	t.Helper()
	want := certifiedPrefix(l)
	got, ok := l.CertifiedThrough()
	if ok != (want > 0) || (ok && got != want-1) {
		t.Fatalf("%s: CertifiedThrough = %d,%v; certified prefix is %d blocks", when, got, ok, want)
	}
	if l.certNext != want {
		t.Fatalf("%s: cursor at %d, certified prefix is %d blocks", when, l.certNext, want)
	}
}

// TestCertifiedThroughCursor: the cursor that replaced the walk from block
// 0 must agree with the definition under out-of-order certificates, across
// truncation below and above it, and on a log rebuilt by recovery.
func TestCertifiedThroughCursor(t *testing.T) {
	l := New("edge-1", 1)
	cut := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(entry("c", l.NextPos()+1), 0); err != nil {
				t.Fatal(err)
			}
			l.TryCut(0, false)
		}
	}
	cut(8)
	checkCertCursor(t, l, "nothing certified")
	for _, bid := range []uint64{3, 1, 0} { // out of order, gap at 2
		certify(t, l, bid)
		checkCertCursor(t, l, "out-of-order certificates")
	}
	certify(t, l, 2) // closes the gap: the cursor jumps over 3
	checkCertCursor(t, l, "gap closed")

	// Truncation above the cursor: blocks 4..7 go, 6 with its certificate;
	// the cursor (read before the truncation, at 4) stays.
	certify(t, l, 6)
	if removed := l.TruncateUncertified(); removed != 4 {
		t.Fatalf("removed = %d, want 4", removed)
	}
	checkCertCursor(t, l, "truncated above the cursor")

	// Truncation below a stale cursor position is impossible by
	// construction — certificates are never removed under it — but a
	// cursor that lags (never read since the certificates arrived) must be
	// brought up to the kept prefix, not left behind it.
	cut(3) // blocks 4, 5, 6
	certify(t, l, 4)
	certify(t, l, 6)
	if removed := l.TruncateUncertified(); removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if l.certNext != 5 {
		t.Fatalf("cursor at %d after truncating to 5 certified blocks", l.certNext)
	}
	checkCertCursor(t, l, "truncated with a lagging cursor")

	// Nothing certified at all: truncation empties the log and the cursor.
	empty := New("edge-1", 1)
	empty.Append(entry("c", 1), 0)
	empty.TryCut(0, false)
	empty.TruncateUncertified()
	checkCertCursor(t, empty, "truncated to empty")

	// The log keeps growing from the truncation point.
	cut(2)
	certify(t, l, 5)
	checkCertCursor(t, l, "regrown after truncation")
}

// TestCertifiedThroughCursorAfterRecovery: recovery replays certificates
// through SetCert in file order; the cursor starts at zero and must find
// the recovered prefix (3 of 5 here) on first use.
func TestCertifiedThroughCursorAfterRecovery(t *testing.T) {
	keys, reg := persistKeys(t)
	dir := t.TempDir()
	buildSegment(t, dir, keys, 5, 3)
	l, st, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkCertCursor(t, l, "recovered log")
	if ct, ok := l.CertifiedThrough(); !ok || ct != 2 {
		t.Fatalf("CertifiedThrough = %d,%v want 2,true", ct, ok)
	}
}

// BenchmarkCertifiedThrough asks a fully certified 10,000-block log for
// its certified frontier — what every proof, merge trigger and healing
// tick does.
func BenchmarkCertifiedThrough(b *testing.B) {
	l := New("edge-1", 1)
	for i := uint64(0); i < 10000; i++ {
		l.Append(entry("c", i+1), 0)
		l.TryCut(0, false)
		d, _ := l.Digest(i)
		if _, err := l.SetCert(wire.BlockProof{Edge: "edge-1", BID: i, Digest: d}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ct, ok := l.CertifiedThrough(); !ok || ct != 9999 {
			b.Fatalf("CertifiedThrough = %d,%v", ct, ok)
		}
	}
}
