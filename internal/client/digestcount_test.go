package client

import (
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
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

// digestsDuring counts the block digests computed from contents while a
// delivery runs: with no verify stage (the handler hashes and verifies),
// through the inline stage, and through pool workers.
func digestsDuring(t *testing.T, reg *wcrypto.Registry, env wire.Envelope, receive func(wire.Envelope)) (direct, inline, pooled uint64) {
	t.Helper()
	count := func(deliver func()) uint64 {
		before := wire.DigestCalls()
		deliver()
		return wire.DigestCalls() - before
	}
	direct = count(func() { receive(env) })
	inline = count(func() { wcrypto.NewVerifyPool(reg, 0, 0, receive).Submit(env) })
	pooled = count(func() {
		pool := wcrypto.NewVerifyPool(reg, 2, 2, receive)
		pool.Submit(env)
		pool.Close() // drains: the envelope has been delivered
	})
	return direct, inline, pooled
}

// TestReceivedBlockHashedOnce pins the cost of receiving evidence: a block
// that arrives whole under a signature over its digest (PutResponse,
// ReadResponse) is hashed exactly once however it is
// delivered — the verify stage hands the digest it checked the signature
// over to the handler — and a get or scan folds each slice of its window
// exactly once.
func TestReceivedBlockHashedOnce(t *testing.T) {
	f := newFixture(t)
	blocks, certs := pruneBlocks(f)
	blk := &blocks[0]
	ackSig := wcrypto.SignBlockAck(f.keys["edge-1"], blk.ID, wcrypto.BlockDigest(blk))

	read := &wire.ReadResponse{ReqID: 1, BID: blk.ID, OK: true, Ts: 5, Block: *blk, HasProof: true, Proof: certs[0]}
	read.EdgeSig = wcrypto.SignReadResponse(f.keys["edge-1"], read, wcrypto.BlockDigest(blk))

	get := mlsm.AssembleGet([]byte("hidden"), 1, mlsm.L0Source{Blocks: blocks, Certs: certs}, mlsm.NewIndex([]int{10}))
	get.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], get)

	for _, c := range []struct {
		name string
		msg  wire.Message
		want uint64
	}{
		{"PutResponse", &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: ackSig}, 1},
		{"ReadResponse", read, 1},
		{"GetResponse", get, uint64(len(blocks))},
	} {
		env := overTheWire(t, "edge-1", c.msg)
		direct, inline, pooled := digestsDuring(t, f.reg, env, func(e wire.Envelope) {
			// A fresh client per delivery, with the operation the message
			// answers outstanding, so every delivery does the full work.
			fc := newFixture(t)
			switch c.name {
			case "ReadResponse":
				fc.c.Read(1, blk.ID)
			case "GetResponse":
				fc.c.Get(1, []byte("hidden"))
			}
			fc.c.Receive(20, e)
			if c.name == "GetResponse" && fc.c.Stats().FullVerifies != 1 {
				t.Errorf("%s: the get was not verified", c.name)
			}
			if fc.c.Stats().VerifyFailures != 0 {
				t.Errorf("%s: delivery failed verification", c.name)
			}
		})
		if direct != c.want || inline != c.want || pooled != c.want {
			t.Errorf("%s: digests computed = %d direct, %d inline stage, %d pooled; want %d each",
				c.name, direct, inline, pooled, c.want)
		}
	}
}

// TestVerifiedDigestIsTheHandlersDigest: the digest a verify stage hands
// over is the one the operation pins for Phase II, and a handler given
// none computes the same.
func TestVerifiedDigestIsTheHandlersDigest(t *testing.T) {
	for _, staged := range []bool{false, true} {
		f := newFixture(t)
		op, envs := f.c.Put(10, []byte("k"), []byte("v"))
		blk := blockWith(0, entryOf(t, envs))
		resp := &wire.PutResponse{BID: 0, Block: blk}
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		env := overTheWire(t, "edge-1", resp)
		if staged {
			wcrypto.NewVerifyPool(f.reg, 0, 0, func(e wire.Envelope) { env = e }).Submit(env)
			if !env.Verified || env.BlockDigest == nil {
				t.Fatalf("stage did not hand a digest over: %+v", env)
			}
		}
		f.c.Receive(20, env)
		if op.Phase != core.PhaseI || string(op.digest) != string(blk.BodyDigest()) {
			t.Fatalf("staged=%v: phase %v, pinned digest %x", staged, op.Phase, op.digest)
		}
	}
}
