package client

import (
	"errors"
	"testing"

	"wedgechain/internal/deploy"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// overloadFixture builds a core with explicit front-door config, in a
// deployment of two edges, so a rebind finds edge-2's key.
func overloadFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	keys, reg, _ := deploy.Keys(deploy.Topology{Edges: 2, Clients: 1})
	cfg.ID, cfg.Edge, cfg.Cloud = "c1", "edge-1", "cloud"
	if cfg.ProofTimeout == 0 {
		cfg.ProofTimeout = int64(1e12)
	}
	return &fixture{c: New(cfg, keys["c1"], reg), keys: keys, reg: reg}
}

func (f *fixture) signedOverload(seq uint64, hint int64) *wire.Overloaded {
	m := &wire.Overloaded{Seq: seq, RetryAfter: hint, Backlog: 3}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	return m
}

func TestOverloadedPacesRetryThenSettlesTyped(t *testing.T) {
	f := overloadFixture(t, Config{ProofTimeout: 1600})
	op, _ := f.c.Put(10, []byte("k"), []byte("v"))

	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedOverload(op.Seq, 1000)})
	if f.c.Stats().Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", f.c.Stats().Overloads)
	}
	if !op.overloaded {
		t.Fatal("op not marked overloaded")
	}
	if op.nextResend < 20+1000 {
		t.Fatalf("nextResend = %d, want pushed past the hint (>= 1020)", op.nextResend)
	}

	// The hinted deadline passes: one more re-send, the last its marks
	// leave room for, goes out...
	f.c.Tick(op.nextResend + 1)
	if op.Done {
		t.Fatal("op settled with an attempt left")
	}
	if f.c.Stats().Resends != 1 {
		t.Fatalf("Resends = %d, want 1", f.c.Stats().Resends)
	}
	// ...and the deadline surfaces the typed overload error, not the
	// generic unavailable.
	f.c.Tick(op.nextResend + 1)
	if !op.Done || !errors.Is(op.Err, ErrOverloaded) {
		t.Fatalf("exhausted op: done=%v err=%v, want ErrOverloaded", op.Done, op.Err)
	}
}

func TestOverloadedForgedOrForeignIgnored(t *testing.T) {
	f := overloadFixture(t, Config{})
	op, _ := f.c.Put(10, []byte("k"), []byte("v"))

	forged := f.signedOverload(op.Seq, 1000)
	forged.EdgeSig[0] ^= 1
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: forged})
	if op.overloaded || f.c.Stats().Overloads != 0 {
		t.Fatal("forged overload signal applied")
	}
	if f.c.Stats().VerifyFailures == 0 {
		t.Fatal("forged signal not counted as verify failure")
	}
	// A signal claiming to come from a different node is not this edge's
	// admission state.
	f.c.Receive(30, wire.Envelope{From: "edge-2", To: "c1", Msg: f.signedOverload(op.Seq, 1000)})
	if op.overloaded || f.c.Stats().Overloads != 0 {
		t.Fatal("foreign overload signal applied")
	}
}
