package client

import (
	"bytes"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Digest-signing adversarial parity, client leg (extends the PR-2 bad-sig
// parity tests): the block-ack signature covers the block digest, and the
// client recomputes that digest from the block it received. A block whose
// frozen cache still holds the honest digest but whose fields were
// tampered — cache poisoning, possible only for in-process delivery by
// reference — must be rejected.

// poisonedAck builds an honest digest-signed PutResponse for the client's
// put, then returns both the honest response and a cache-poisoned twin:
// same signature, same cached digest, tampered foreign entry.
func poisonedAck(t *testing.T, f *fixture) (op *Op, honest, poisoned *wire.PutResponse) {
	t.Helper()
	op, envs := f.c.Put(10, []byte("k"), []byte("v"))
	mine := entryOf(t, envs)
	foreign := wire.Entry{Client: "c2", Seq: 1, Key: []byte("k2"), Value: []byte("w")}
	blk := wire.Block{Edge: "edge-1", ID: 0, StartPos: 0, Entries: []wire.Entry{mine, foreign}}
	blk.Freeze()
	digest := wcrypto.BlockDigest(&blk)
	sig := wcrypto.SignBlockAck(f.keys["edge-1"], blk.ID, digest)
	honest = &wire.PutResponse{BID: blk.ID, Block: blk, EdgeSig: sig}

	bad := blk // shares the frozen cache: digest still reads as honest
	bad.Entries = append([]wire.Entry(nil), blk.Entries...)
	bad.Entries[1].Value = []byte("evil") // victim's own entry left intact
	if !bytes.Equal(bad.CachedDigest(), digest) {
		t.Fatal("test setup: cache should still serve the honest digest")
	}
	poisoned = &wire.PutResponse{BID: blk.ID, Block: bad, EdgeSig: sig}
	return op, honest, poisoned
}

func TestCachePoisonedAckRejectedInline(t *testing.T) {
	f := newFixture(t)
	op, honest, _ := poisonedAck(t, f)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: honest})
	if op.Phase != core.PhaseI || f.c.Stats().VerifyFailures != 0 {
		t.Fatalf("honest ack: phase=%v stats=%+v", op.Phase, f.c.Stats())
	}

	f = newFixture(t)
	op, _, poisoned := poisonedAck(t, f)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: poisoned})
	if op.Phase != core.PhaseNone {
		t.Fatal("cache-poisoned ack advanced the op")
	}
	if f.c.Stats().VerifyFailures == 0 {
		t.Fatal("verify failure not counted")
	}
}
