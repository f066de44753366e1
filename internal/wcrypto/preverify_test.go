package wcrypto

import (
	"testing"

	"wedgechain/internal/wire"
)

// preverifyFixture is a registry that knows one client, c1.
func preverifyFixture() (*Registry, KeyPair) {
	k := DeterministicKey("c1")
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	return reg, k
}

// TestPreVerifySessionBatch checks PreVerify on batches: a session
// signature authenticates the whole batch in one check, tampering with any
// entry breaks it, and per-entry signatures without one admit nothing.
func TestPreVerifySessionBatch(t *testing.T) {
	reg, k := preverifyFixture()
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
// block digests only the cloud's handler derives, so PreVerify does not
// hash the shipped blocks — even a validly signed request reports false.
func TestPreVerifyLeavesMergeRequestToHandler(t *testing.T) {
	reg, k := preverifyFixture()
	m := &wire.MergeRequest{Edge: "c1", ReqID: 1, L0Blocks: []wire.Block{{Edge: "c1"}}}
	m.EdgeSig = SignMsg(k, m)
	if err := VerifyMsg(reg, "c1", m, m.EdgeSig); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if PreVerify(reg, wire.Envelope{From: "c1", To: "cloud", Msg: m}) {
		t.Fatal("PreVerify checked a merge request")
	}
}
