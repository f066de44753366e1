package client

import (
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// overTheWire re-decodes a message the way a TCP peer would receive it, so
// the receiver holds its own struct with nothing cached by the sender.
func overTheWire(t *testing.T, from wire.NodeID, m wire.Message) wire.Envelope {
	t.Helper()
	env, err := wire.DecodeEnvelope(wire.EncodeEnvelope(wire.Envelope{From: from, To: "c1", Msg: m}))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestReceivedBlockHashedOnce pins the cost of receiving evidence: a block
// that arrives whole under a signature over its digest (PutResponse,
// ReadResponse) is hashed exactly once — one digest serves the signature
// check and the pinned evidence — and a get or scan folds each slice of
// its window exactly once.
func TestReceivedBlockHashedOnce(t *testing.T) {
	f := newFixture(t)
	blocks, certs := pruneBlocks(f)
	blk := &blocks[0]
	ackSig := wcrypto.SignBlockAck(f.keys["edge-1"], blk.ID, wcrypto.BlockDigest(blk))

	read := &wire.ReadResponse{ReqID: 1, BID: blk.ID, OK: true, Ts: 5, Block: *blk, HasProof: true, Proof: certs[0]}
	read.EdgeSig = wcrypto.SignReadResponse(f.keys["edge-1"], read, wcrypto.BlockDigest(blk))

	start, end := wire.PointRange([]byte("hidden"))
	get := scan.Assemble(start, end, 1, mlsm.L0Source{Blocks: blocks, Certs: certs}, mlsm.NewIndex([]int{10}))
	get.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], get)

	for _, c := range []struct {
		name string
		msg  wire.Message
		want uint64
	}{
		{"PutResponse", &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: ackSig}, 1},
		{"ReadResponse", read, 1},
		{"get", get, uint64(len(blocks))},
	} {
		env := overTheWire(t, "edge-1", c.msg)
		// A fresh client, with the operation the message answers
		// outstanding, so the delivery does the full work.
		fc := newFixture(t)
		switch c.name {
		case "ReadResponse":
			fc.c.Read(1, blk.ID)
		case "get":
			fc.c.Get(1, []byte("hidden"))
		}
		before := wire.DigestCalls()
		fc.c.Receive(20, env)
		if got := wire.DigestCalls() - before; got != c.want {
			t.Errorf("%s: digests computed = %d, want %d", c.name, got, c.want)
		}
		if c.name == "get" && fc.c.Stats().FullVerifies != 1 {
			t.Errorf("%s: the get was not verified", c.name)
		}
		if fc.c.Stats().VerifyFailures != 0 {
			t.Errorf("%s: delivery failed verification", c.name)
		}
	}
}

// TestVerifiedDigestIsTheHandlersDigest: the digest the handler checked
// the edge's signature over is the one the operation pins for Phase II.
func TestVerifiedDigestIsTheHandlersDigest(t *testing.T) {
	f := newFixture(t)
	op, envs := f.c.Put(10, []byte("k"), []byte("v"))
	blk := blockWith(0, entryOf(t, envs))
	resp := &wire.PutResponse{BID: 0, Block: blk}
	resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
	f.c.Receive(20, overTheWire(t, "edge-1", resp))
	if op.Phase != core.PhaseI || string(op.digest) != string(blk.BodyDigest()) {
		t.Fatalf("phase %v, pinned digest %x", op.Phase, op.digest)
	}
}
