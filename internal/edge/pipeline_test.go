package edge

import (
	"bytes"
	"log/slog"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// framed re-decodes env the way a TCP peer receives it, so the node holds
// its own message with nothing cached by the sender. Tests named
// ...AndPooled run an as-built leg and a framed one; the second leg once
// went through a parallel verification stage.
func framed(t *testing.T, env wire.Envelope) wire.Envelope {
	t.Helper()
	out, err := wire.DecodeEnvelope(wire.EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sessionBatch builds a batch of puts that client c MACs for edge-1.
func sessionBatch(f *fixture, c wire.NodeID, seqs []uint64) *wire.PutBatch {
	b := &wire.PutBatch{Client: c}
	for _, s := range seqs {
		b.Entries = append(b.Entries, wire.Entry{Client: c, Seq: s, Key: []byte("k"), Value: []byte("v")})
	}
	return mac(f.keys[c], b)
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
// admit a batch. A batch of individually signed entries with no MAC —
// with or without a claimed signer — is dropped whole, as built and
// framed alike: no write counted, no block cut, one log line.
func TestPutBatchWithoutSessionSignatureDropped(t *testing.T) {
	for _, signer := range []wire.NodeID{"", "c1"} {
		for _, isFramed := range []bool{false, true} {
			var logged bytes.Buffer
			f := newFixture(t, Config{BatchSize: 3, Logger: unstampedLogger(&logged)})
			b := &wire.PutBatch{Client: signer}
			for seq := uint64(1); seq <= 3; seq++ {
				e := f.entry("c1", seq, "k", "v")
				e.Sig = wcrypto.SignMsg(f.keys["c1"], &e)
				b.Entries = append(b.Entries, e)
			}
			env := wire.Envelope{From: "c1", To: "edge-1", Msg: b}
			if isFramed {
				env = framed(t, env)
			}
			out := f.node.Receive(1, env)
			if s := f.node.Stats(); len(out) != 0 || s.Writes != 0 || s.BlocksCut != 0 || f.node.Log().BufferLen() != 0 {
				t.Fatalf("signer %q framed %v: unsigned batch admitted: %d outputs, %+v", signer, isFramed, len(out), s)
			}
			if n := bytes.Count(logged.Bytes(), []byte("\n")); n != 1 || !bytes.HasPrefix(logged.Bytes(), []byte(`level=INFO msg="rejecting batch `)) {
				t.Fatalf("signer %q framed %v: %d log lines, want 1 rejection:\n%s", signer, isFramed, n, logged.String())
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

// TestSessionBatchEntryCannotBeSpliced lifts an entry out of a MACed
// batch and replays it as a batch of one under the original MAC: the MAC
// covers the whole batch, so the splice must be rejected.
func TestSessionBatchEntryCannotBeSpliced(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := sessionBatch(f, "c1", []uint64{1, 2})
	splice := &wire.PutBatch{Client: "c1", Entries: b.Entries[:1], MAC: b.MAC}
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: splice})
	if out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("entry spliced out of a MACed batch accepted")
	}
}

// TestBatchMACedForAnotherEdgeRejected: a batch c1 MACed for edge-1 and
// replayed to edge-2 fails there, because edge-2 shares another key with
// c1; edge-1 accepts the same batch.
func TestBatchMACedForAnotherEdgeRejected(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	k2 := wcrypto.DeterministicKey("edge-2")
	f.reg.Register(k2.ID, k2.Pub)
	other := New(Config{ID: k2.ID, Cloud: "cloud", BatchSize: 1}, k2, f.reg)
	env := put(f.keys["c1"], f.entry("c1", 1, "k", "v"))
	for _, e := range []wire.Envelope{env, framed(t, env)} {
		e.To = k2.ID
		if out := other.Receive(1, e); len(out) != 0 || other.Stats().Writes != 0 || other.Log().BufferLen() != 0 {
			t.Fatalf("edge-2 admitted a batch MACed for edge-1: %v", kindsOf(out))
		}
	}
	if k := kindsOf(f.node.Receive(1, env)); k[wire.KindPutResponse] != 1 {
		t.Fatalf("edge-1 did not acknowledge its own batch: %v", k)
	}
}

// TestBatchMACedUnderAnotherClientKeyRejected: c2 MACs a batch of c1's
// entries with the key c2 shares with edge-1 and sends it as c1. Author and
// sender agree, but the MAC is not under k(c1, edge-1).
func TestBatchMACedUnderAnotherClientKeyRejected(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := mac(f.keys["c2"], &wire.PutBatch{Client: "c1", Entries: []wire.Entry{f.entry("c1", 1, "k", "forged")}})
	if out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b}); out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("batch MACed under c2's key accepted as c1's")
	}
}

// TestSignedBatchFromOldClientNeitherAppendedNorAcked: a client that still
// signs its batch with Ed25519 puts a valid signature where the MAC goes.
// The edge appends and acknowledges nothing, as built and framed.
func TestSignedBatchFromOldClientNeitherAppendedNorAcked(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{f.entry("c1", 1, "k", "v")}}
	b.MAC = wcrypto.SignMsg(f.keys["c1"], b)
	env := wire.Envelope{From: "c1", To: "edge-1", Msg: b}
	for _, e := range []wire.Envelope{env, framed(t, env)} {
		if out := f.node.Receive(1, e); len(out) != 0 {
			t.Fatalf("signed batch answered with %v", kindsOf(out))
		}
	}
	if s := f.node.Stats(); s.Writes != 0 || s.BlocksCut != 0 || f.node.Log().BufferLen() != 0 {
		t.Fatalf("signed batch appended: %+v", s)
	}
}

// TestPutRequestNeitherAppendedNorAcked: every write is a PutBatch, so a
// PutRequest, its entry validly signed on its own, is no write: the edge
// appends and acknowledges nothing for it, as built and framed.
func TestPutRequestNeitherAppendedNorAcked(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	e := f.entry("c1", 1, "k", "v")
	e.Sig = wcrypto.SignMsg(f.keys["c1"], &e)
	req := wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}}
	for _, env := range []wire.Envelope{req, framed(t, req)} {
		if out := f.node.Receive(1, env); len(out) != 0 {
			t.Fatalf("PutRequest answered with %v", kindsOf(out))
		}
	}
	if s := f.node.Stats(); s.Writes != 0 || s.BlocksCut != 0 || f.node.Log().BufferLen() != 0 || f.node.Log().NumBlocks() != 0 {
		t.Fatalf("PutRequest appended: %+v", s)
	}
	// The same entry in a batch of one is a write.
	if k := kindsOf(f.put(2, "c1", f.entry("c1", 1, "k", "v"))); k[wire.KindPutResponse] != 1 {
		t.Fatalf("batch of one not acknowledged: %v", k)
	}
}

// TestSessionBatchSignerMustBeSender closes the cross-identity forgery
// hole: client c2 MACs a batch whose entries are attributed to c1 and
// ships it with From=c1. The batch MAC is valid (it is c2's), but the
// author is not the sender, so the whole batch must be rejected —
// otherwise a registered client could forge writes under any identity.
func TestSessionBatchSignerMustBeSender(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	b := &wire.PutBatch{Client: "c2", Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("forged")},
	}}
	mac(f.keys["c2"], b)
	// Spoofed envelope sender matching the entries, not the signer.
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	if out != nil || f.node.Stats().Writes != 0 {
		t.Fatal("batch signed by c2 accepted as writes from c1")
	}
}

// TestSessionBatchForeignEntriesDropped asserts a MACed batch cannot
// smuggle entries attributed to another client: the batch MAC
// authenticates the sender, and each entry must belong to it.
func TestSessionBatchForeignEntriesDropped(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 2})
	b := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("v")},
		{Client: "c2", Seq: 1, Key: []byte("k"), Value: []byte("v")}, // forged attribution
	}}
	mac(f.keys["c1"], b)
	f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: b})
	if w := f.node.Stats().Writes; w != 1 {
		t.Fatalf("writes = %d, want 1 (own entry only)", w)
	}
}

// TestForgedProofDigestRejectedSerialAndPooled is the edge leg of
// digest-signing adversarial parity: a validly cloud-signed block proof
// whose digest does not match the edge's own block must be rejected — and
// rejected identically as built and framed.
func TestForgedProofDigestRejectedSerialAndPooled(t *testing.T) {
	run := func(isFramed bool) Stats {
		f := newFixture(t, Config{BatchSize: 1})
		f.add(t, 1, "c1", 1, "a") // cuts block 0
		forged := &wire.BlockProof{
			Edge: "edge-1", BID: 0,
			Digest: wcrypto.Digest([]byte("not-the-block")),
		}
		forged.CloudSig = wcrypto.SignMsg(f.keys["cloud"], forged)
		env := wire.Envelope{From: "cloud", To: "edge-1", Msg: forged}
		if isFramed {
			env = framed(t, env)
		}
		f.node.Receive(2, env)
		return f.node.Stats()
	}
	built, framed := run(false), run(true)
	if built.Certified != 0 || framed.Certified != 0 {
		t.Fatalf("forged-digest proof certified: built %d framed %d", built.Certified, framed.Certified)
	}
	if built != framed {
		t.Fatalf("stats diverged: built %+v framed %+v", built, framed)
	}
}
