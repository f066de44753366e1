package mlsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// windowFixture builds a three-block certified window: block 0 writes
// "apple", block 1 writes "mango", block 2 is uncertified and writes
// "zebra".
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
	keys := []string{"apple", "mango", "zebra"}
	for i, k := range keys {
		blk := wire.Block{Edge: "edge-1", ID: uint64(i), StartPos: uint64(i), Ts: int64(i), Entries: []wire.Entry{
			{Client: "c1", Seq: uint64(i + 1), Key: []byte(k), Value: []byte("v")},
		}}
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

func (f *windowFixture) params(key string) L0WindowParams {
	return L0WindowParams{
		Reg:   f.reg,
		Edge:  "edge-1",
		Cloud: "cloud",
		Excludes: func(s *wire.BlockSummary) bool {
			return s.ExcludesKey([]byte(key))
		},
	}
}

// split prunes the given block indexes and keeps the rest full.
func (f *windowFixture) split(prune ...int) (blocks []wire.Block, certs, prunedCerts []wire.BlockProof, pruned []wire.PrunedBlock) {
	isPruned := map[int]bool{}
	for _, i := range prune {
		isPruned[i] = true
	}
	for i := range f.blocks {
		if isPruned[i] {
			pruned = append(pruned, wire.PruneBlock(&f.blocks[i]))
			prunedCerts = append(prunedCerts, f.certs[i])
		} else {
			blocks = append(blocks, f.blocks[i])
			certs = append(certs, f.certs[i])
		}
	}
	return
}

func TestVerifyL0WindowHonestPruning(t *testing.T) {
	f := newWindowFixture(t)
	// Get for "mango": blocks 0 (apple, certified) and 2 (zebra,
	// uncertified) are legitimately pruned; block 1 ships in full.
	blocks, certs, prunedCerts, pruned := f.split(0, 2)
	var seen []uint64
	p := f.params("mango")
	p.OnBlock = func(b *wire.Block) { seen = append(seen, b.ID) }
	win, err := VerifyL0Window(p, blocks, certs, pruned, prunedCerts)
	if err != nil {
		t.Fatalf("honest pruned window rejected: %v", err)
	}
	if win.Slots != 3 || win.FirstID != 0 || win.L0End != 3 {
		t.Fatalf("window shape: %+v", win)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("OnBlock saw %v", seen)
	}
	// The uncertified pruned block's claimed digest is pinned.
	if len(win.Uncertified) != 1 || !bytes.Equal(win.Uncertified[2], wcrypto.BlockDigest(&f.blocks[2])) {
		t.Fatalf("uncertified pins = %v", win.Uncertified)
	}
}

func TestVerifyL0WindowDefects(t *testing.T) {
	f := newWindowFixture(t)
	cases := []struct {
		name    string
		mutate  func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof)
		errPart string
	}{
		{"false exclusion", func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof) {
			// Prune the block that HOLDS the key: summary is honest, so it
			// visibly covers "mango" — an unsound prune.
			pruned[0] = wire.PruneBlock(&f.blocks[1])
			prunedCerts[0] = f.certs[1]
			return blocks[:0], pruned[:1], prunedCerts[:1]
		}, "does not exclude"},
		{"tampered summary", func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof) {
			// Doctor the certified pruned block's summary so the exclusion
			// looks sound; the claimed digest then contradicts the cert.
			pruned[0].Summary = wire.BlockSummary{} // "no keys at all"
			return blocks, pruned, prunedCerts
		}, "does not match"},
		{"window gap", func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof) {
			// Drop the pruned reference for block 0: ids 1,2 remain but the
			// walk starts at 1 — contiguity itself is intact, so instead
			// drop the middle: keep pruned {0,2}, full {} — gap at 1.
			return blocks[1:], pruned, prunedCerts
		}, "not consecutive"},
		{"duplicate id", func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof) {
			// Block 0 appears both in full and as a pruned reference.
			return append([]wire.Block{f.blocks[0]}, blocks...), pruned, prunedCerts
		}, "not consecutive"},
		{"foreign pruned edge", func(blocks []wire.Block, pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) ([]wire.Block, []wire.PrunedBlock, []wire.BlockProof) {
			pruned[0].Edge = "edge-other"
			return blocks, pruned, prunedCerts
		}, "wrong edge"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Base: get for "mango", blocks 0 and 2 pruned, block 1 full.
			blocks, certs, prunedCerts, pruned := f.split(0, 2)
			blocks, pruned, prunedCerts = c.mutate(blocks, pruned, prunedCerts)
			if len(blocks) < len(certs) {
				certs = certs[:len(blocks)]
			} else if len(blocks) > len(certs) {
				for len(certs) < len(blocks) {
					certs = append([]wire.BlockProof{f.certs[0]}, certs...)
				}
			}
			_, err := VerifyL0Window(f.params("mango"), blocks, certs, pruned, prunedCerts)
			if err == nil {
				t.Fatal("defective window accepted")
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("error %q does not mention %q", err, c.errPart)
			}
		})
	}
}

// TestVerifyL0WindowTamperedUncertifiedSummaryPins: a tampered summary on
// an UNCERTIFIED pruned block passes structural checks (nothing binds it
// yet) but pins the claimed digest, which the honest block proof later
// contradicts — the same lazy catch as injected uncertified content.
func TestVerifyL0WindowTamperedUncertifiedSummaryPins(t *testing.T) {
	f := newWindowFixture(t)
	blocks, certs, prunedCerts, pruned := f.split(2) // uncertified block pruned
	// Doctor the summary so the key "zebra" appears excluded.
	idx := len(pruned) - 1
	pruned[idx].Summary = wire.BlockSummary{}
	win, err := VerifyL0Window(f.params("zebra"), blocks, certs, pruned, prunedCerts)
	if err != nil {
		t.Fatalf("uncertified tampered summary should defer to Phase II: %v", err)
	}
	honest := wcrypto.BlockDigest(&f.blocks[2])
	if bytes.Equal(win.Uncertified[2], honest) {
		t.Fatal("pinned digest does not reflect the tampered summary")
	}
}

// TestVerifyL0WindowScanExclusion covers the range predicate: an
// interval-disjoint block may be pruned for a scan, an overlapping one
// may not.
func TestVerifyL0WindowScanExclusion(t *testing.T) {
	f := newWindowFixture(t)
	rangeParams := func(start, end string) L0WindowParams {
		p := f.params("")
		p.Excludes = func(s *wire.BlockSummary) bool {
			return s.ExcludesRange([]byte(start), []byte(end))
		}
		return p
	}
	// Scan [m, n): apple (block 0) and zebra (block 2) are disjoint.
	blocks, certs, prunedCerts, pruned := f.split(0, 2)
	if _, err := VerifyL0Window(rangeParams("m", "n"), blocks, certs, pruned, prunedCerts); err != nil {
		t.Fatalf("disjoint blocks not prunable for scan: %v", err)
	}
	// Scan [a, n): apple overlaps — pruning block 0 is unsound.
	if _, err := VerifyL0Window(rangeParams("a", "n"), blocks, certs, pruned, prunedCerts); err == nil {
		t.Fatal("overlapping block pruned without complaint")
	}
}

// TestVerifyL0WindowLargeRun exercises a longer mixed run for the merge
// walk bookkeeping.
func TestVerifyL0WindowLargeRun(t *testing.T) {
	reg := wcrypto.NewRegistry()
	ck := wcrypto.DeterministicKey("cloud")
	reg.Register("cloud", ck.Pub)
	var blocks []wire.Block
	var certs []wire.BlockProof
	var pruned []wire.PrunedBlock
	var prunedCerts []wire.BlockProof
	for i := 0; i < 40; i++ {
		blk := wire.Block{Edge: "e", ID: uint64(i), StartPos: uint64(i), Entries: []wire.Entry{
			{Client: "c1", Seq: uint64(i + 1), Key: []byte(fmt.Sprintf("k%04d", i)), Value: []byte("v")},
		}}
		blk.Freeze()
		cert := wire.BlockProof{Edge: "e", BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
		cert.CloudSig = wcrypto.SignMsg(ck, &cert)
		if i%3 == 0 {
			blocks = append(blocks, blk)
			certs = append(certs, cert)
		} else {
			pruned = append(pruned, wire.PruneBlock(&blk))
			prunedCerts = append(prunedCerts, cert)
		}
	}
	p := L0WindowParams{Reg: reg, Edge: "e", Cloud: "cloud",
		Excludes: func(s *wire.BlockSummary) bool { return s.ExcludesKey([]byte("k0000")) }}
	// k0000 is in block 0, which ships full; every pruned block excludes it.
	win, err := VerifyL0Window(p, blocks, certs, pruned, prunedCerts)
	if err != nil {
		t.Fatal(err)
	}
	if win.Slots != 40 || win.FirstID != 0 || win.L0End != 40 || len(win.Uncertified) != 0 {
		t.Fatalf("window shape: %+v", win)
	}
}

// TestCheckFrontier pins the one rule on where a get's window must start
// (shared by the client and the Judge): the signed compaction frontier
// when a signed root is present, block 0 when the response claims nothing
// was ever compacted, and no constraint when a full block holds the key.
func TestCheckFrontier(t *testing.T) {
	f := newWindowFixture(t)
	tail := func(key string) L0WindowCheck { // window = blocks 1..2 only
		p := f.params(key)
		p.Key = []byte(key)
		win, err := VerifyL0Window(p, f.blocks[1:], f.certs[1:], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return win
	}
	signed := func(l0From uint64) *wire.SignedRoot {
		return &wire.SignedRoot{L0From: l0From, CloudSig: []byte{1}}
	}
	hit, miss := tail("mango"), tail("apple")
	if hit.HitVer != 2 || string(hit.HitVal) != "v" || miss.HitVer != 0 {
		t.Fatalf("hit = (%d, %q), miss = %d", hit.HitVer, hit.HitVal, miss.HitVer)
	}
	for _, c := range []struct {
		name          string
		win           L0WindowCheck
		global        *wire.SignedRoot
		levelEvidence bool
		ok            bool
	}{
		{"miss, no index state, window past block 0", miss, &wire.SignedRoot{}, false, false},
		{"hit, no index state, window past block 0", hit, &wire.SignedRoot{}, false, true},
		{"miss at the signed frontier", miss, signed(1), true, true},
		{"miss behind the signed frontier", miss, signed(0), true, false},
		{"hit behind the signed frontier", hit, signed(0), true, true},
		{"empty window", L0WindowCheck{}, signed(7), true, true},
	} {
		if err := c.win.CheckFrontier(c.global, c.levelEvidence); (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}
