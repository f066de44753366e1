package client

import (
	"errors"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// overloadFixture builds a core with explicit front-door config.
func overloadFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
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
	f := overloadFixture(t, Config{RetryEvery: 100, MaxAttempts: 2})
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

	// The hinted deadline passes: one more re-send is allowed...
	f.c.Tick(op.nextResend + 1)
	if op.Done {
		t.Fatal("op settled with an attempt left")
	}
	if f.c.Stats().Resends != 1 {
		t.Fatalf("Resends = %d, want 1", f.c.Stats().Resends)
	}
	// ...and exhaustion surfaces the typed overload error, not the
	// generic unavailable.
	f.c.Tick(op.nextResend + 1)
	if !op.Done || !errors.Is(op.Err, ErrOverloaded) {
		t.Fatalf("exhausted op: done=%v err=%v, want ErrOverloaded", op.Done, op.Err)
	}
}

func TestOverloadedWithoutRetrySettlesImmediately(t *testing.T) {
	f := overloadFixture(t, Config{})
	op, _ := f.c.Put(10, []byte("k"), []byte("v"))
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedOverload(op.Seq, 1000)})
	if !op.Done || !errors.Is(op.Err, ErrOverloaded) {
		t.Fatalf("op without retry machinery: done=%v err=%v, want immediate ErrOverloaded", op.Done, op.Err)
	}
}

func TestOverloadedForgedOrForeignIgnored(t *testing.T) {
	f := overloadFixture(t, Config{RetryEvery: 100, MaxAttempts: 4})
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

// lightGossip arms the core with a cloud-signed frontier — the light
// client's precondition for skipping structural verification.
func (f *fixture) lightGossip(ts int64) {
	g := &wire.Gossip{Edge: "edge-1", Ts: ts, LogSize: 10, Blocks: 2}
	g.CloudSig = wcrypto.SignMsg(f.keys["cloud"], g)
	f.c.Receive(ts, wire.Envelope{From: "cloud", To: "c1", Msg: g})
}

// garbageGetResponse is an edge-signed answer to a get of key that shows
// the value "v" at version 3, but is structurally worthless — its one
// slice places the row past the block's end: only a full verification
// pass can tell.
func (f *fixture) garbageGetResponse(reqID uint64, key []byte) *wire.ScanResponse {
	slice := wire.L0Slice{Edge: "edge-1", ID: 7, StartPos: 2,
		Rows: []wire.SliceRow{{Entry: wire.Entry{Client: "c2", Seq: 1, Key: key, Value: []byte("v")}}}}
	return f.pointResponse(reqID, string(key), wire.ScanProof{L0Pruned: []wire.L0Slice{slice}})
}

func TestLightClientSkipsUnsampledResponse(t *testing.T) {
	f := overloadFixture(t, Config{Light: true, SampleEvery: 8})
	f.lightGossip(5)
	key := []byte("k1")
	op, _ := f.c.Get(10, key)
	// Steer the seed so this request is NOT in the audit sample; the
	// sampler is deterministic, so the test is too.
	for f.c.sampleHit(op.ReqID) {
		f.c.cfg.SampleSeed++
	}

	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.garbageGetResponse(op.ReqID, key)})
	if !op.Done || op.Err != nil {
		t.Fatalf("skip path: done=%v err=%v", op.Done, op.Err)
	}
	if op.Phase != core.PhaseII || !op.Found || string(op.GotValue) != "v" || op.GotVer != 3 {
		t.Fatalf("skip path result: %+v", op)
	}
	st := f.c.Stats()
	if st.SampledSkips != 1 || st.FullVerifies != 0 {
		t.Fatalf("stats = skips %d / full %d, want 1 / 0", st.SampledSkips, st.FullVerifies)
	}
}

func TestLightClientForcedSampleStillVerifies(t *testing.T) {
	// SampleEvery 1 audits everything — the forced-hit mode conviction
	// tests use. The same garbage the skip path would have accepted must
	// fail full verification.
	f := overloadFixture(t, Config{Light: true, SampleEvery: 1})
	f.lightGossip(5)
	key := []byte("k1")
	op, _ := f.c.Get(10, key)
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.garbageGetResponse(op.ReqID, key)})
	if !op.Done || op.Err == nil {
		t.Fatalf("audited garbage: done=%v err=%v, want failure", op.Done, op.Err)
	}
	st := f.c.Stats()
	if st.FullVerifies != 1 || st.SampledSkips != 0 {
		t.Fatalf("stats = full %d / skips %d, want 1 / 0", st.FullVerifies, st.SampledSkips)
	}
	if st.VerifyNanos == 0 {
		t.Fatal("full verification burned no measured time")
	}
}

func TestLightClientWithoutFrontierFallsBackToFullVerify(t *testing.T) {
	f := overloadFixture(t, Config{Light: true, SampleEvery: 1 << 20})
	key := []byte("k1")
	op, _ := f.c.Get(10, key)
	for f.c.sampleHit(op.ReqID) {
		f.c.cfg.SampleSeed++
	}
	// No gossiped frontier: even an unsampled response must be verified.
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.garbageGetResponse(op.ReqID, key)})
	if op.Err == nil {
		t.Fatal("frontier-less light client accepted garbage")
	}
	if f.c.Stats().SampledSkips != 0 {
		t.Fatal("frontier-less light client skipped verification")
	}
}

func TestSampleHitDeterministicAndDense(t *testing.T) {
	f := overloadFixture(t, Config{Light: true, SampleEvery: 16, SampleSeed: 7})
	g := overloadFixture(t, Config{Light: true, SampleEvery: 16, SampleSeed: 7})
	hits := 0
	const n = 4096
	for req := uint64(1); req <= n; req++ {
		a, b := f.c.sampleHit(req), g.c.sampleHit(req)
		if a != b {
			t.Fatalf("sampler not deterministic at req %d", req)
		}
		if a {
			hits++
		}
	}
	// Expected n/16 = 256; allow wide slack — the property that matters
	// is "a constant fraction is audited", not the exact binomial tail.
	if hits < n/32 || hits > n/8 {
		t.Fatalf("sampler audited %d of %d, want around %d", hits, n, n/16)
	}
	if one := overloadFixture(t, Config{Light: true, SampleEvery: 1}); !one.c.sampleHit(99) {
		t.Fatal("SampleEvery=1 must audit everything")
	}
}
