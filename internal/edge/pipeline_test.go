package edge

import (
	"bytes"
	"log/slog"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// feedThroughPool runs the same envelopes through a concurrent verify
// pool fronting the node, preserving submission order, and returns every
// output the node emitted.
func feedThroughPool(t *testing.T, n *Node, reg *wcrypto.Registry, envs []wire.Envelope) []wire.Envelope {
	t.Helper()
	var outs []wire.Envelope
	pool := wcrypto.NewVerifyPool(reg, 4, 8, func(env wire.Envelope) {
		outs = append(outs, n.Receive(1, env)...)
	})
	for _, env := range envs {
		pool.Submit(env)
	}
	pool.Close()
	return outs
}

// TestPoolFedEdgeMatchesSerial feeds an identical stream — single adds, a
// session-signed batch and a forged signature — to a serially driven edge
// and a pool-fronted edge, and asserts byte-identical observable
// behaviour: same accepted writes, same emitted responses, and identical
// rejection of the bad signature.
func TestPoolFedEdgeMatchesSerial(t *testing.T) {
	build := func() (*fixture, []wire.Envelope) {
		f := newFixture(t, Config{BatchSize: 2})
		envs := []wire.Envelope{
			{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: f.entry("c1", 1, "", "a")}},
			{From: "c2", To: "edge-1", Msg: &wire.PutRequest{Entry: f.entry("c2", 1, "", "b")}},
		}
		forged := f.entry("c1", 2, "", "evil")
		forged.Sig[0] ^= 1
		envs = append(envs,
			wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: forged}},
			wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: f.entry("c1", 3, "", "c")}},
			wire.Envelope{From: "c2", To: "edge-1", Msg: &wire.PutRequest{Entry: f.entry("c2", 2, "", "d")}},
			wire.Envelope{From: "c1", To: "edge-1", Msg: sessionBatch(f, "c1", []uint64{4, 5})},
		)
		return f, envs
	}

	serial, serialEnvs := build()
	var serialOuts []wire.Envelope
	for _, env := range serialEnvs {
		serialOuts = append(serialOuts, serial.node.Receive(1, env)...)
	}

	pooled, pooledEnvs := build()
	pooledOuts := feedThroughPool(t, pooled.node, pooled.reg, pooledEnvs)

	if s, p := serial.node.Stats(), pooled.node.Stats(); s.Writes != p.Writes || s.BlocksCut != p.BlocksCut {
		t.Fatalf("stats diverged: serial %+v pooled %+v", s, p)
	}
	if serial.node.Stats().Writes != 6 {
		t.Fatalf("writes = %d, want 6 (everything but the forged entry)", serial.node.Stats().Writes)
	}
	if len(serialOuts) != len(pooledOuts) {
		t.Fatalf("output count diverged: serial %d pooled %d", len(serialOuts), len(pooledOuts))
	}
	for i := range serialOuts {
		if serialOuts[i].To != pooledOuts[i].To || serialOuts[i].Msg.MsgKind() != pooledOuts[i].Msg.MsgKind() {
			t.Fatalf("output %d diverged: serial %v->%s pooled %v->%s",
				i, serialOuts[i].Msg.MsgKind(), serialOuts[i].To, pooledOuts[i].Msg.MsgKind(), pooledOuts[i].To)
		}
	}
}

// sessionBatch builds a session-signed batch of puts for client c.
func sessionBatch(f *fixture, c wire.NodeID, seqs []uint64) *wire.PutBatch {
	b := &wire.PutBatch{Client: c}
	for _, s := range seqs {
		b.Entries = append(b.Entries, wire.Entry{Client: c, Seq: s, Key: []byte("k"), Value: []byte("v")})
	}
	b.BatchSig = wcrypto.SignMsg(f.keys[c], b)
	return b
}

func TestSessionBatchAccepted(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 3})
	b := sessionBatch(f, "c1", []uint64{1, 2, 3})
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	k := kindsOf(out)
	if k[wire.KindPutResponse] != 1 || k[wire.KindBlockCertify] != 1 {
		t.Fatalf("session batch not committed: %v", k)
	}
	if f.node.Stats().Writes != 3 {
		t.Fatalf("writes = %d, want 3", f.node.Stats().Writes)
	}
}

// TestPutBatchWithoutSessionSignatureDropped: per-entry signatures do not
// admit a batch. A batch of individually signed entries with no BatchSig —
// with or without a claimed signer — is dropped whole, inline and behind a
// verify pool alike: no write counted, no block cut, one log line.
func TestPutBatchWithoutSessionSignatureDropped(t *testing.T) {
	for _, signer := range []wire.NodeID{"", "c1"} {
		for _, pooled := range []bool{false, true} {
			var logged bytes.Buffer
			f := newFixture(t, Config{BatchSize: 3, Logger: unstampedLogger(&logged)})
			b := &wire.PutBatch{Client: signer}
			for seq := uint64(1); seq <= 3; seq++ {
				b.Entries = append(b.Entries, f.entry("c1", seq, "k", "v"))
			}
			env := wire.Envelope{From: "c1", To: "edge-1", Msg: b}
			var out []wire.Envelope
			if pooled {
				out = feedThroughPool(t, f.node, f.reg, []wire.Envelope{env})
			} else {
				out = f.node.Receive(1, env)
			}
			if s := f.node.Stats(); len(out) != 0 || s.Writes != 0 || s.BlocksCut != 0 || f.node.Log().BufferLen() != 0 {
				t.Fatalf("signer %q pooled %v: unsigned batch admitted: %d outputs, %+v", signer, pooled, len(out), s)
			}
			if n := bytes.Count(logged.Bytes(), []byte("\n")); n != 1 || !bytes.HasPrefix(logged.Bytes(), []byte(`level=INFO msg="rejecting batch `)) {
				t.Fatalf("signer %q pooled %v: %d log lines, want 1 rejection:\n%s", signer, pooled, n, logged.String())
			}
		}
	}
}

// unstampedLogger writes slog text lines to buf without the time
// attribute, so a test can count and compare them.
func unstampedLogger(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

func TestSessionBatchRejectsTampering(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 3})
	b := sessionBatch(f, "c1", []uint64{1, 2, 3})
	b.Entries[1].Value = []byte("evil") // after signing
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	if out != nil || f.node.Stats().Writes != 0 {
		t.Fatalf("tampered session batch accepted: %d writes", f.node.Stats().Writes)
	}
}

// TestSessionBatchEntryCannotBeSpliced lifts an entry out of a signed
// batch and replays it as a standalone put: without an individual
// signature it must be rejected.
func TestSessionBatchEntryCannotBeSpliced(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := sessionBatch(f, "c1", []uint64{1, 2})
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: b.Entries[0]}})
	if out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("spliced entry without individual signature accepted")
	}
}

// TestSessionBatchSignerMustBeSender closes the cross-identity forgery
// hole: client c2 signs a batch whose entries are attributed to c1 and
// ships it with From=c1. The batch signature is valid (it is c2's), but
// the signer is not the sender, so the whole batch must be rejected —
// otherwise a registered client could forge writes under any identity.
func TestSessionBatchSignerMustBeSender(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := &wire.PutBatch{Client: "c2", Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("forged")},
	}}
	b.BatchSig = wcrypto.SignMsg(f.keys["c2"], b)
	// Spoofed envelope sender matching the entries, not the signer.
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	if out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("batch signed by c2 accepted as writes from c1")
	}
	// The same spoof with a pool-verified envelope must also fail: the
	// structural signer==sender check is independent of Verified.
	env := wire.Envelope{From: "c1", To: "edge-1", Msg: b, Verified: true}
	if out := f.node.Receive(1, env); out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("pool-verified spoofed batch accepted")
	}
}

// TestSessionBatchForeignEntriesDropped asserts a signed batch cannot
// smuggle entries attributed to another client: the batch signature
// authenticates the sender, and each entry must belong to it.
func TestSessionBatchForeignEntriesDropped(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 2})
	b := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("v")},
		{Client: "c2", Seq: 1, Key: []byte("k"), Value: []byte("v")}, // forged attribution
	}}
	b.BatchSig = wcrypto.SignMsg(f.keys["c1"], b)
	f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	if w := f.node.Stats().Writes; w != 1 {
		t.Fatalf("writes = %d, want 1 (own entry only)", w)
	}
}

// TestForgedProofDigestRejectedSerialAndPooled is the edge leg of
// digest-signing adversarial parity: a validly cloud-signed block proof
// whose digest does not match the edge's own block must be rejected — and
// rejected identically whether the envelope is verified inline or
// pre-verified by a concurrent pool (the digest cross-check is structural
// and independent of Envelope.Verified).
func TestForgedProofDigestRejectedSerialAndPooled(t *testing.T) {
	run := func(pooled bool) Stats {
		f := newFixture(t, Config{BatchSize: 1})
		f.add(t, 1, "c1", 1, "a") // cuts block 0
		forged := &wire.BlockProof{
			Edge: "edge-1", BID: 0,
			Digest: wcrypto.Digest([]byte("not-the-block")),
		}
		forged.CloudSig = wcrypto.SignMsg(f.keys["cloud"], forged)
		env := wire.Envelope{From: "cloud", To: "edge-1", Msg: forged}
		if pooled {
			feedThroughPool(t, f.node, f.reg, []wire.Envelope{env})
		} else {
			f.node.Receive(2, env)
		}
		return f.node.Stats()
	}
	serial, pooled := run(false), run(true)
	if serial.Certified != 0 || pooled.Certified != 0 {
		t.Fatalf("forged-digest proof certified: serial %d pooled %d", serial.Certified, pooled.Certified)
	}
	if serial != pooled {
		t.Fatalf("stats diverged: serial %+v pooled %+v", serial, pooled)
	}
}
