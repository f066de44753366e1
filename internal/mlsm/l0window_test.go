package mlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// windowFixture builds a three-block window: block 0 writes "apple" and
// "melon", block 1 writes "mango" twice around a log entry, block 2 is
// uncertified and writes "zebra".
type windowFixture struct {
	reg      *wcrypto.Registry
	cloudKey wcrypto.KeyPair
	blocks   []wire.Block
	certs    []wire.BlockProof
}

func newWindowFixture(t *testing.T) *windowFixture {
	t.Helper()
	f := &windowFixture{reg: wcrypto.NewRegistry(), cloudKey: wcrypto.DeterministicKey("cloud")}
	f.reg.Register("cloud", f.cloudKey.Pub)
	put := func(seq int, k, v string) wire.Entry {
		return wire.Entry{Client: "c1", Seq: uint64(seq), Key: []byte(k), Value: []byte(v)}
	}
	pos := uint64(0)
	for i, entries := range [][]wire.Entry{
		{put(1, "melon", "m"), put(2, "apple", "a")},
		{put(3, "mango", "old"), {Client: "c1", Seq: 4, Value: []byte("log")}, put(5, "mango", "new")},
		{put(6, "zebra", "z")},
	} {
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: pos, Ts: int64(i), Entries: entries}
		pos += uint64(len(entries))
		blk.Freeze()
		cert := wire.BlockProof{}
		if i < 2 {
			cert = wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
			cert.CloudSig = wcrypto.SignMsg(f.cloudKey, &cert)
		}
		f.blocks = append(f.blocks, blk)
		f.certs = append(f.certs, cert)
	}
	return f
}

func (f *windowFixture) get(key string) (L0WindowParams, []wire.L0Slice) {
	start, end := wire.PointRange([]byte(key))
	return f.scan(start, end)
}

func (f *windowFixture) scan(start, end []byte) (L0WindowParams, []wire.L0Slice) {
	p := L0WindowParams{Reg: f.reg, Edge: "edge-1", Cloud: "cloud", Start: start, End: end}
	return p, L0Source{Blocks: f.blocks, Certs: f.certs}.Window(start, end)
}

func TestVerifyL0WindowHonestPruning(t *testing.T) {
	f := newWindowFixture(t)
	// Get for "mango": blocks 0 and 2 answer with a bracketing pair, block
	// 1 with its two versions of the key.
	p, window := f.get("mango")
	if len(window[0].Rows) != 0 || len(window[1].Rows) != 2 || len(window[2].Rows) != 0 {
		t.Fatalf("rows per slice: %d %d %d", len(window[0].Rows), len(window[1].Rows), len(window[2].Rows))
	}
	win, err := VerifyL0Window(p, window)
	if err != nil {
		t.Fatalf("honest window rejected: %v", err)
	}
	if win.Slots != 3 || win.FirstID != 0 || win.L0End != 3 {
		t.Fatalf("window shape: %+v", win)
	}
	if newest := MergeNewest(win.Rows); len(win.Rows) != 2 || newest[0].Ver != 5 || string(newest[0].Value) != "new" {
		t.Fatalf("rows = %+v", win.Rows)
	}
	// Every slice folds to its block's digest; the uncertified one is pinned.
	for i := range f.blocks {
		if d, err := window[i].Digest(); err != nil || !bytes.Equal(d, wcrypto.BlockDigest(&f.blocks[i])) {
			t.Fatalf("slice %d folds to another digest than its block (err %v)", i, err)
		}
	}
	if len(win.Uncertified) != 1 || !bytes.Equal(win.Uncertified[2], wcrypto.BlockDigest(&f.blocks[2])) {
		t.Fatalf("uncertified pins = %v", win.Uncertified)
	}
}

// TestVerifyL0WindowDefects is the adversarial matrix at the verifier:
// every way of lying with a slice of a certified block, each refused with
// an error naming the defect. (The same lies run through the client and
// the Judge in internal/client's TestL0SliceLiesConvict.)
func TestVerifyL0WindowDefects(t *testing.T) {
	f := newWindowFixture(t)
	other := wire.Block{Edge: "edge-1", ID: 9, StartPos: 90, Entries: []wire.Entry{
		{Client: "c9", Seq: 1, Key: []byte("mango"), Value: []byte("from another block")},
	}}
	cases := []struct {
		name    string
		mutate  func(w []wire.L0Slice) []wire.L0Slice
		errPart string
	}{
		{"false exclusion", func(w []wire.L0Slice) []wire.L0Slice {
			// Stop short of the key in the block that HOLDS it: an honest
			// slice of the range below "mango", so it folds to the
			// certified digest, but its right flank is the key itself.
			sig := w[1].CertSig
			w[1] = f.blocks[1].Slice([]byte("mango"), []byte("mango"))
			w[1].CertSig = sig
			return w
		}, "does not bracket"},
		{"tampered summary", func(w []wire.L0Slice) []wire.L0Slice {
			// Doctor a flank that still brackets the key: the fold then
			// contradicts the certificate.
			w[0].Right.Key = []byte("nectarine")
			return w
		}, "does not match"},
		{"omitted row", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows = w[1].Rows[1:]
			return w
		}, "right flank missing"},
		{"omitted row, count adjusted", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows = w[1].Rows[:1]
			w[1].Count--
			return w
		}, "does not match"},
		{"row from another block", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows[1].Entry = other.Entries[0]
			return w
		}, "does not match"},
		{"forged value", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows[1].Entry.Value = []byte("forged")
			return w
		}, "does not match"},
		{"shifted begin", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Begin--
			return w
		}, "right flank missing"},
		{"index past count", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows[1].Index = w[1].Count
			return w
		}, "entry index"},
		{"wrong count", func(w []wire.L0Slice) []wire.L0Slice {
			w[0].Count++
			return w
		}, "proof does not verify"},
		{"rows out of order", func(w []wire.L0Slice) []wire.L0Slice {
			w[1].Rows[0], w[1].Rows[1] = w[1].Rows[1], w[1].Rows[0]
			return w
		}, "order"},
		{"row outside the range", func(w []wire.L0Slice) []wire.L0Slice {
			// Ship the neighbour as a row instead of a flank.
			s := f.blocks[0].Slice(nil, nil)
			s.CertSig = w[0].CertSig
			w[0] = s
			return w
		}, "outside the requested range"},
		{"missing left flank", func(w []wire.L0Slice) []wire.L0Slice {
			sig := w[0].CertSig
			w[0] = f.blocks[0].Slice(wire.PointRange([]byte("zz"))) // both entries sort before it
			w[0].Left, w[0].CertSig = nil, sig
			return w
		}, "left flank missing"},
		{"window gap", func(w []wire.L0Slice) []wire.L0Slice {
			return append(w[:1:1], w[2])
		}, "not consecutive"},
		{"duplicate id", func(w []wire.L0Slice) []wire.L0Slice {
			return append(w[:1:1], w[0], w[1], w[2])
		}, "not consecutive"},
		{"foreign pruned edge", func(w []wire.L0Slice) []wire.L0Slice {
			w[0].Edge = "edge-other"
			return w
		}, "wrong edge"},
		{"forged certificate", func(w []wire.L0Slice) []wire.L0Slice {
			w[2].CertSig = w[1].CertSig
			return w
		}, "does not match"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, window := f.get("mango")
			_, err := VerifyL0Window(p, c.mutate(window))
			if err == nil {
				t.Fatal("defective window accepted")
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("error %q does not mention %q", err, c.errPart)
			}
		})
	}
}

// TestVerifyL0WindowTamperedUncertifiedSummaryPins: a slice cut out of a
// doctored copy of an UNCERTIFIED block passes structural checks (nothing
// binds it yet) but pins the digest it folds to, which the honest block
// proof later contradicts — the same lazy catch as injected uncertified
// content.
func TestVerifyL0WindowTamperedUncertifiedSummaryPins(t *testing.T) {
	f := newWindowFixture(t)
	p, window := f.get("zebra")
	doctored := wire.Block{Edge: "edge-1", ID: 2, StartPos: f.blocks[2].StartPos, Ts: 2, Entries: []wire.Entry{
		{Client: "c1", Seq: 6, Key: []byte("yak"), Value: []byte("z")},
	}}
	window[2] = doctored.Slice(p.Start, p.End)
	win, err := VerifyL0Window(p, window)
	if err != nil {
		t.Fatalf("uncertified doctored slice should defer to Phase II: %v", err)
	}
	if len(win.Rows) != 0 {
		t.Fatal("the doctored slice still shows the key")
	}
	if bytes.Equal(win.Uncertified[2], wcrypto.BlockDigest(&f.blocks[2])) {
		t.Fatal("pinned digest does not reflect the doctored block")
	}
}

// TestVerifyL0WindowScanExclusion covers ranges: a block with no key in
// the range answers with a bracketing pair, and a slice cut for a
// narrower range than the one asked does not bracket it.
func TestVerifyL0WindowScanExclusion(t *testing.T) {
	f := newWindowFixture(t)
	// Scan [mb, n): only melon (block 0) is inside.
	p, window := f.scan([]byte("mb"), []byte("n"))
	win, err := VerifyL0Window(p, window)
	if err != nil {
		t.Fatalf("honest scan window rejected: %v", err)
	}
	if len(win.Rows) != 1 || string(win.Rows[0].Key) != "melon" || win.Rows[0].Ver != 1 {
		t.Fatalf("rows = %+v", win.Rows)
	}
	// The same slices do not answer [a, n): apple and mango are inside it.
	p.Start = []byte("a")
	if _, err := VerifyL0Window(p, window); err == nil || !strings.Contains(err.Error(), "does not bracket") {
		t.Fatalf("narrower slices accepted for a wider range: %v", err)
	}
	// Unbounded: every keyed entry is a row, the log entry is not.
	p, window = f.scan(nil, nil)
	if win, err = VerifyL0Window(p, window); err != nil || len(win.Rows) != 5 {
		t.Fatalf("unbounded scan: %d rows, err %v", len(win.Rows), err)
	}
}

// TestVerifyL0WindowLargeRun exercises a longer run for the window
// bookkeeping.
func TestVerifyL0WindowLargeRun(t *testing.T) {
	reg := wcrypto.NewRegistry()
	ck := wcrypto.DeterministicKey("cloud")
	reg.Register("cloud", ck.Pub)
	var src L0Source
	for i := 0; i < 40; i++ {
		blk := wire.Block{Edge: "e", ID: uint64(i), StartPos: uint64(i), Entries: []wire.Entry{
			{Client: "c1", Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%04d", i)), Value: []byte("v")},
		}}
		blk.Freeze()
		cert := wire.BlockProof{Edge: "e", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(ck, &cert)
		src.Blocks = append(src.Blocks, blk)
		src.Certs = append(src.Certs, cert)
	}
	start, end := wire.PointRange([]byte("k0000"))
	win, err := VerifyL0Window(L0WindowParams{Reg: reg, Edge: "e", Cloud: "cloud", Start: start, End: end}, src.Window(start, end))
	if err != nil {
		t.Fatal(err)
	}
	if win.Slots != 40 || win.FirstID != 0 || win.L0End != 40 || len(win.Uncertified) != 0 || len(win.Rows) != 1 {
		t.Fatalf("window shape: %+v", win)
	}
}

// TestCheckFrontier pins the one rule on where a window must start
// (shared by gets, scans and the Judge): the signed compaction frontier
// when a signed root is present, block 0 when the response claims nothing
// was ever compacted.
func TestCheckFrontier(t *testing.T) {
	f := newWindowFixture(t)
	p, window := f.get("apple")
	win, err := VerifyL0Window(p, window[1:]) // window = blocks 1..2 only
	if err != nil {
		t.Fatal(err)
	}
	signed := func(l0From uint64) *wire.SignedRoot {
		return &wire.SignedRoot{L0From: l0From, CloudSig: []byte{1}}
	}
	for _, c := range []struct {
		name          string
		win           L0WindowCheck
		global        *wire.SignedRoot
		levelEvidence bool
		ok            bool
	}{
		{"no index state, window past block 0", win, &wire.SignedRoot{}, false, false},
		{"at the signed frontier", win, signed(1), true, true},
		{"behind the signed frontier", win, signed(0), true, false},
		{"empty window", L0WindowCheck{}, signed(7), true, true},
	} {
		if err := c.win.CheckFrontier(c.global, c.levelEvidence); (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// BenchmarkSliceVerify is what a reader pays per block of the L0 window:
// one slice of a certified 100-entry block — two flanks, one row — checked,
// folded to the block's digest and bound to its certificate (whose
// signature the registry remembers after the first pass, as it does for a
// block that stays in the window across reads).
func BenchmarkSliceVerify(b *testing.B) {
	reg := wcrypto.NewRegistry()
	ck := wcrypto.DeterministicKey("cloud")
	reg.Register("cloud", ck.Pub)
	blk := wire.Block{Edge: "e", ID: 3, StartPos: 300}
	for i := 0; i < 100; i++ {
		blk.Entries = append(blk.Entries, wire.Entry{
			Client: "c3.s1", Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%08d", (i*7919)%20000)),
			Value: make([]byte, 128), Sig: make([]byte, 64),
		})
	}
	blk.Freeze()
	cert := wire.BlockProof{Edge: "e", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
	cert.CloudSig = wcrypto.SignMsg(ck, &cert)
	start, end := wire.PointRange(blk.Entries[50].Key)
	window := L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{cert}}.Window(start, end)
	if s := &window[0]; s.Left == nil || s.Right == nil || len(s.Rows) != 1 {
		b.Fatalf("fixture slice: %+v", s)
	}
	p := L0WindowParams{Reg: reg, Edge: "e", Cloud: "cloud", Start: start, End: end}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyL0Window(p, window); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSlicesProveWhatBlocksHoldProperty: for random blocks (duplicate
// keys, key-less entries, single-entry and empty blocks) and random
// requests (unbounded on either side, empty, single key, keys the window
// never wrote), the honest window verifies, every slice folds to its
// block's digest, and the rows it yields are exactly the key-value records
// the whole blocks hold in the range.
func TestSlicesProveWhatBlocksHoldProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	reg := wcrypto.NewRegistry()
	ck := wcrypto.DeterministicKey("cloud")
	reg.Register("cloud", ck.Pub)
	key := func() []byte {
		if rng.Intn(8) == 0 {
			return nil // a pure log entry
		}
		return []byte(fmt.Sprintf("k%02d", rng.Intn(12))) // few keys: duplicates are common
	}
	bound := func() []byte {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return []byte{}
		default:
			return []byte(fmt.Sprintf("k%02d", rng.Intn(14)))
		}
	}
	for round := 0; round < 300; round++ {
		var src L0Source
		pos := uint64(rng.Intn(1000))
		first := uint64(rng.Intn(5))
		for b := 0; b < 1+rng.Intn(5); b++ {
			blk := wire.Block{Edge: "e", ID: first + uint64(b), StartPos: pos, Ts: int64(round)}
			for i, n := 0, []int{0, 1, 1, 2, 5, 17}[rng.Intn(6)]; i < n; i++ {
				blk.Entries = append(blk.Entries, wire.Entry{Client: "c", Seq: pos + uint64(i), Key: key(), Value: []byte{byte(rng.Intn(256))}})
			}
			pos += uint64(len(blk.Entries))
			if rng.Intn(2) == 0 {
				blk.Freeze()
			}
			cert := wire.BlockProof{}
			if rng.Intn(3) > 0 {
				cert = wire.BlockProof{Edge: "e", BID: blk.ID, Digest: blk.BodyDigest()}
				cert.CloudSig = wcrypto.SignMsg(ck, &cert)
			}
			src.Blocks = append(src.Blocks, blk)
			src.Certs = append(src.Certs, cert)
		}
		start, end := bound(), bound()
		if rng.Intn(3) == 0 {
			start, end = wire.PointRange(key())
		}

		var want []wire.KV
		for i := range src.Blocks {
			for _, kv := range BlockKVs(&src.Blocks[i]) {
				if !wire.KeyBefore(kv.Key, start) && !wire.KeyAfter(kv.Key, end) {
					want = append(want, kv)
				}
			}
		}
		window := src.Window(start, end)
		win, err := VerifyL0Window(L0WindowParams{Reg: reg, Edge: "e", Cloud: "cloud", Start: start, End: end}, window)
		if err != nil {
			t.Fatalf("round %d: honest window for [%q, %q) rejected: %v", round, start, end, err)
		}
		for i := range src.Blocks {
			if d, err := window[i].Digest(); err != nil || !bytes.Equal(d, src.Blocks[i].BodyDigest()) {
				t.Fatalf("round %d: slice of block %d folds to another digest (err %v)", round, src.Blocks[i].ID, err)
			}
			if _, pinned := win.Uncertified[src.Blocks[i].ID]; pinned != (len(src.Certs[i].CloudSig) == 0) {
				t.Fatalf("round %d: block %d pinned = %v", round, src.Blocks[i].ID, pinned)
			}
		}
		// Same records, same versions; a slice lists a block's rows in key
		// order, the block in log order.
		got := append([]wire.KV(nil), win.Rows...)
		byVer := func(kvs []wire.KV) {
			sort.Slice(kvs, func(i, j int) bool { return kvs[i].Ver < kvs[j].Ver })
		}
		byVer(got)
		byVer(want)
		if len(got) != len(want) {
			t.Fatalf("round %d: [%q, %q): %d rows from slices, %d in the blocks", round, start, end, len(got), len(want))
		}
		for i := range want {
			if got[i].Ver != want[i].Ver || !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("round %d: row %d is %+v, the blocks hold %+v", round, i, got[i], want[i])
			}
		}
	}
}
