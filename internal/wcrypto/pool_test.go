package wcrypto

import (
	"fmt"
	"testing"

	"wedgechain/internal/wire"
)

func poolFixture(t *testing.T, clients int) (*Registry, map[wire.NodeID]KeyPair) {
	t.Helper()
	reg := NewRegistry()
	keys := map[wire.NodeID]KeyPair{}
	for i := 0; i < clients; i++ {
		id := wire.NodeID(fmt.Sprintf("c%d", i+1))
		k := DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	return reg, keys
}

func signedPut(k KeyPair, seq uint64) wire.Envelope {
	e := wire.Entry{Client: k.ID, Seq: seq, Key: []byte("k"), Value: []byte("v")}
	e.Sig = SignMsg(k, &e)
	return wire.Envelope{From: k.ID, To: "edge-1", Msg: &wire.PutRequest{Entry: e}}
}

// TestVerifyPoolPreservesSubmissionOrder drives many interleaved clients
// through a concurrent pool and asserts delivery in exact submission
// order (which implies per-client order), with every envelope verified.
// Run under -race this also exercises the worker/dispatcher concurrency.
func TestVerifyPoolPreservesSubmissionOrder(t *testing.T) {
	const clients, perClient = 7, 40
	reg, keys := poolFixture(t, clients)

	var got []wire.Envelope
	pool := NewVerifyPool(reg, 4, 8, func(env wire.Envelope) {
		got = append(got, env)
	})

	var want []wire.Envelope
	for seq := uint64(1); seq <= perClient; seq++ {
		for i := 0; i < clients; i++ {
			env := signedPut(keys[wire.NodeID(fmt.Sprintf("c%d", i+1))], seq)
			want = append(want, env)
			pool.Submit(env)
		}
	}
	pool.Close()

	if len(got) != len(want) {
		t.Fatalf("delivered %d envelopes, submitted %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Verified {
			t.Fatalf("envelope %d not marked verified", i)
		}
		wantE := want[i].Msg.(*wire.PutRequest).Entry
		gotE := got[i].Msg.(*wire.PutRequest).Entry
		if gotE.Client != wantE.Client || gotE.Seq != wantE.Seq {
			t.Fatalf("order violated at %d: got %s/%d want %s/%d",
				i, gotE.Client, gotE.Seq, wantE.Client, wantE.Seq)
		}
	}
}

// TestVerifyPoolBadSignatureDeliveredUnverified checks the pool's failure
// contract: a bad signature is not dropped, it is delivered with
// Verified=false so the handler rejects it exactly as the serial path
// would.
func TestVerifyPoolBadSignatureDeliveredUnverified(t *testing.T) {
	reg, keys := poolFixture(t, 1)
	good := signedPut(keys["c1"], 1)
	bad := signedPut(keys["c1"], 2)
	bad.Msg.(*wire.PutRequest).Entry.Sig[0] ^= 1

	var got []wire.Envelope
	pool := NewVerifyPool(reg, 2, 4, func(env wire.Envelope) { got = append(got, env) })
	pool.Submit(good)
	pool.Submit(bad)
	pool.Close()

	if len(got) != 2 {
		t.Fatalf("delivered %d envelopes, want 2", len(got))
	}
	if !got[0].Verified {
		t.Fatal("good signature not verified")
	}
	if got[1].Verified {
		t.Fatal("bad signature marked verified")
	}
}

// TestVerifyPoolSynchronousMode checks the workers=0 degenerate mode used
// by deterministic single-threaded harnesses: Submit verifies inline and
// delivers before returning.
func TestVerifyPoolSynchronousMode(t *testing.T) {
	reg, keys := poolFixture(t, 1)
	delivered := false
	pool := NewVerifyPool(reg, 0, 0, func(env wire.Envelope) {
		delivered = true
		if !env.Verified {
			t.Fatal("inline verification failed")
		}
	})
	pool.Submit(signedPut(keys["c1"], 1))
	if !delivered {
		t.Fatal("synchronous mode did not deliver inline")
	}
	pool.Close() // no-op, must not hang
}

// TestVerifyPoolSessionBatch checks PreVerify on batches: a session
// signature authenticates the whole batch in one check, tampering with any
// entry breaks it, and per-entry signatures without one admit nothing.
func TestVerifyPoolSessionBatch(t *testing.T) {
	reg, keys := poolFixture(t, 1)
	k := keys["c1"]
	batch := &wire.PutBatch{Client: k.ID}
	for seq := uint64(1); seq <= 10; seq++ {
		batch.Entries = append(batch.Entries, wire.Entry{Client: k.ID, Seq: seq, Key: []byte("k"), Value: []byte("v")})
	}
	batch.BatchSig = SignMsg(k, batch)
	env := wire.Envelope{From: k.ID, To: "edge-1", Msg: batch}
	if !PreVerify(reg, env) {
		t.Fatal("session-signed batch rejected")
	}
	tampered := *batch
	tampered.Entries = append([]wire.Entry(nil), batch.Entries...)
	tampered.Entries[3].Value = []byte("evil")
	if PreVerify(reg, wire.Envelope{From: k.ID, To: "edge-1", Msg: &tampered}) {
		t.Fatal("tampered session batch verified")
	}
	perEntry := &wire.PutBatch{Entries: append([]wire.Entry(nil), batch.Entries...)}
	for i := range perEntry.Entries {
		perEntry.Entries[i].Sig = SignMsg(k, &perEntry.Entries[i])
	}
	for _, client := range []wire.NodeID{"", k.ID} {
		perEntry.Client = client
		if PreVerify(reg, wire.Envelope{From: k.ID, To: "edge-1", Msg: perEntry}) {
			t.Fatalf("batch without BatchSig (Client %q) verified on its entry signatures", client)
		}
	}
}

// TestPreVerifyLeavesMergeRequestToHandler: a merge request is signed over
// digests and leaves the cloud's handler computes anyway, so the pool must
// not hash the shipped blocks and pages a first time on its behalf — even
// a validly signed request goes to the handler unverified.
func TestPreVerifyLeavesMergeRequestToHandler(t *testing.T) {
	reg, keys := poolFixture(t, 1)
	m := &wire.MergeRequest{Edge: "c1", ReqID: 1, L0Blocks: []wire.Block{{Edge: "c1"}}}
	m.EdgeSig = SignMsg(keys["c1"], m)
	if err := VerifyMsg(reg, "c1", m, m.EdgeSig); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if PreVerify(reg, wire.Envelope{From: "c1", To: "cloud", Msg: m}) {
		t.Fatal("PreVerify checked a merge request")
	}
}
