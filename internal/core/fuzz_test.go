package core

import (
	"runtime"
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// fuzzWindow builds an honest L0 window from fuzz input: every four bytes
// become an entry (key drawn from a handful so duplicates are common, some
// entries key-less), cut into blocks of varying size, each certified or
// not; the request is a get (a point range) or a scan with bounds drawn
// from the same bytes. It returns the cloud's table, the edge-signed scan
// response, and the block to dispute.
func fuzzWindow(data []byte, keys map[wire.NodeID]wcrypto.KeyPair) (*CertTable, *wire.ScanResponse, uint64) {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	keyOf := func(b byte) []byte {
		if b%8 == 7 {
			return nil
		}
		return []byte{'k', '0' + b%8}
	}
	certs := NewCertTable()
	var src mlsm.L0Source
	pos, i := uint64(at(0)), 1
	for b := uint64(0); b < 1+uint64(at(1)%4); b++ {
		blk := wire.Block{Edge: "edge-1", ID: b, StartPos: pos, Ts: int64(b)}
		for n := int(at(i) % 6); n > 0 && i < len(data)+8; n-- {
			blk.Entries = append(blk.Entries, wire.Entry{Client: "c1", Seq: pos, Key: keyOf(at(i + 1)), Value: []byte{at(i + 2)}})
			pos++
			i += 3
		}
		i++
		digest := blk.BodyDigest()
		cert := wire.BlockProof{}
		if at(i)%3 != 0 {
			certs.Certify("edge-1", blk.ID, digest, uint64(len(blk.Entries)))
			cert = wire.BlockProof{Edge: "edge-1", BID: blk.ID, Digest: digest}
			cert.CloudSig = wcrypto.SignMsg(keys["cloud"], &cert)
		}
		src.Blocks = append(src.Blocks, blk)
		src.Certs = append(src.Certs, cert)
	}
	idx := mlsm.NewIndex([]int{10})
	disputed := uint64(at(i+1)) % uint64(len(src.Blocks))
	start, end := keyOf(at(i+3)), keyOf(at(i+4))
	if at(i+2)%2 == 0 {
		start, end = wire.PointRange(start)
	} else if start != nil && end != nil && string(start) >= string(end) {
		end = nil
	}
	resp := scan.Assemble(start, end, 1, src, idx)
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)
	return certs, resp, disputed
}

// FuzzL0Slice fuzzes the read verifiers from both sides. Whatever the
// input decodes to — the seeds are honest get and scan responses, which
// the fuzzer then mutates — the window checks must neither panic nor
// allocate out of proportion to the frame (a slice's Count and Begin are
// attacker-chosen 32-bit numbers). And the honest response built from the
// same bytes must never convict: disputed before the Judge, over any of
// its blocks, the verdict is not guilty.
func FuzzL0Slice(f *testing.F) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1"} {
		keys[id] = wcrypto.DeterministicKey(id)
		reg.Register(id, keys[id].Pub)
	}
	for _, seed := range []string{"", "a", "honest window", "\x05\x03\x02kkk\x01\x07\x07\x07\x00\x01\x02\x03\x04", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6"} {
		_, m, _ := fuzzWindow([]byte(seed), keys)
		f.Add(wire.EncodeMessage(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Mutated evidence: decode and verify as the Judge would, minus the
		// edge signature no mutation survives.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if m, err := wire.DecodeMessage(data); err == nil {
			if resp, ok := m.(*wire.ScanResponse); ok {
				_, _ = scan.Verify(scan.Params{Reg: reg, Edge: "edge-1", Cloud: "cloud"}, resp)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > limit {
			t.Fatalf("decoding and verifying a %d-byte frame allocated %d bytes", len(data), got)
		}

		// Honest evidence from the same bytes: no verdict.
		certs, resp, bid := fuzzWindow(data, keys)
		d := BuildScanLieDispute(keys["c1"], "edge-1", bid, resp)
		if v := Judge(reg, certs, "cloud", "c1", d); v.Guilty {
			// An uncertified block was promised and never certified: that
			// conviction is the protocol's, not a verifier defect.
			if _, certified := certs.Lookup("edge-1", bid); certified {
				t.Fatalf("honest evidence convicted: %s", v.Reason)
			}
		}
	})
}
