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
		_, st, blocks, certs, err := Recover(dir, "edge-1", 10, reg, "cloud")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
				t.Fatalf("Recover: %v", err)
			}
			return
		}
		st.Close()
		_, st, blocks2, certs2, err := Recover(dir, "edge-1", 10, reg, "cloud")
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		st.Close()
		if blocks2 != blocks || certs2 != certs {
			t.Fatalf("second recovery %d blocks / %d certs, first %d / %d", blocks2, certs2, blocks, certs)
		}
	})
}

// recoverSeeds returns segments the real Store wrote: blocks with
// cloud-signed certificates, the same history after a ResetTo rewrite and
// a continued append, and that segment with a torn tail.
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
	return [][]byte{written, reset, reset[:len(reset)-3], nil}
}
