package wlog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// FuzzRecover feeds mutated segments to Recover. Whatever the bytes, it
// must not panic; a segment it refuses is refused as corrupt or as an
// older format; and a segment it accepts, once its torn tail is cut,
// recovers again to the same blocks and certificates.
func FuzzRecover(f *testing.F) {
	keys, reg := persistKeys(f)
	for _, seg := range recoverSeeds(f, keys, reg) {
		f.Add(seg)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wedgelog.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, blocks, certs, err := Recover(dir, "edge-1", 10, reg, "cloud")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
				t.Fatalf("Recover: %v", err)
			}
			return
		}
		st.Close()
		l2, st, blocks2, certs2, err := Recover(dir, "edge-1", 10, reg, "cloud")
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		st.Close()
		if blocks2 != blocks || certs2 != certs || l2.BufferLen() != l.BufferLen() {
			t.Fatalf("second recovery %d blocks / %d certs / %d buffered, first %d / %d / %d",
				blocks2, certs2, l2.BufferLen(), blocks, certs, l.BufferLen())
		}
	})
}

// recoverSeeds returns segments the real Store wrote: blocks with
// cloud-signed certificates, the same history after a ResetTo rewrite and
// a continued append, that segment with a torn tail, and it with run
// records: one its block covers and one no block covers yet.
func recoverSeeds(f *testing.F, keys map[wire.NodeID]wcrypto.KeyPair, reg *wcrypto.Registry) [][]byte {
	dir := f.TempDir()
	path := filepath.Join(dir, "wedgelog.seg")
	buildSegment(f, dir, keys, 4, 2)
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	l, st, _, _, err := Recover(dir, "edge-1", 10, reg, "cloud")
	if err != nil {
		f.Fatal(err)
	}
	l.TruncateUncertified()
	if err := st.ResetTo(l); err != nil {
		f.Fatal(err)
	}
	e := wire.Entry{Client: "c1", Seq: 100, Value: []byte("after reset")}
	e.Sig = wcrypto.SignMsg(keys["c1"], &e)
	b := wire.Block{Edge: "edge-1", ID: 2, StartPos: 2, Entries: []wire.Entry{e}}
	p := wire.BlockProof{Edge: "edge-1", BID: 2, Digest: wcrypto.BlockDigest(&b)}
	p.CloudSig = wcrypto.SignMsg(keys["cloud"], &p)
	if err := st.AppendBlockBuffered(&b); err != nil {
		f.Fatal(err)
	}
	if err := st.AppendCertBuffered(&p); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	reset, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	st, err = OpenStore(dir, true)
	if err != nil {
		f.Fatal(err)
	}
	for _, run := range []wire.Block{
		{Edge: "edge-1", ID: 2, StartPos: 2, Entries: []wire.Entry{e}},
		{Edge: "edge-1", ID: 3, StartPos: 3, Entries: []wire.Entry{{Client: "c1", Seq: 101, Value: []byte("run")}, {Client: "c1", Seq: 102}}},
	} {
		if err := st.AppendRunBuffered(&run); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	runs, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{written, reset, reset[:len(reset)-3], runs, runs[:len(runs)-2], nil}
}
