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

// TestPreVerifySessionBatch pins PreVerify's PutBatch case: a batch
// carries a pairwise MAC (VerifyMAC), which a registry of public keys
// cannot check, so every batch reports false — one MACed for its edge, one
// signed as older clients did, and one with per-entry signatures only.
func TestPreVerifySessionBatch(t *testing.T) {
	reg, k := preverifyFixture()
	e := DeterministicKey("edge-1")
	reg.Register(e.ID, e.Pub)
	batch := &wire.PutBatch{Client: k.ID}
	for seq := uint64(1); seq <= 10; seq++ {
		batch.Entries = append(batch.Entries, wire.Entry{Client: k.ID, Seq: seq, Key: []byte("k"), Value: []byte("v")})
	}
	var err error
	if batch.MAC, err = MAC(reg, k, k.ID, e.ID, batch); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMAC(reg, e, k.ID, e.ID, batch, batch.MAC); err != nil {
		t.Fatalf("setup: %v", err)
	}
	signed := *batch
	signed.MAC = SignMsg(k, &signed)
	perEntry := &wire.PutBatch{Client: k.ID, Entries: append([]wire.Entry(nil), batch.Entries...)}
	for i := range perEntry.Entries {
		perEntry.Entries[i].Sig = SignMsg(k, &perEntry.Entries[i])
	}
	for name, b := range map[string]*wire.PutBatch{"MACed": batch, "signed": &signed, "per-entry": perEntry} {
		if PreVerify(reg, wire.Envelope{From: k.ID, To: e.ID, Msg: b}) {
			t.Fatalf("%s batch pre-verified", name)
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
