package edge

import (
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestEdgeRestartRecoversLog simulates an edge crash/restart: blocks and
// certificates committed before the crash must survive, reads must serve
// them with proofs, and the replay defence must persist.
func TestEdgeRestartRecoversLog(t *testing.T) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"edge-1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	dir := t.TempDir()
	cfg := Config{ID: "edge-1", Cloud: "cloud", BatchSize: 1, L0Threshold: 100}

	n1, recovered, err := NewPersistent(cfg, keys["edge-1"], reg, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 {
		t.Fatalf("fresh store recovered %d blocks", recovered)
	}
	// Commit two blocks, certify the first.
	write := func(n *Node, seq uint64, val string) {
		e := wire.Entry{Client: "c1", Seq: seq, Value: []byte(val)}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		outs := n.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}})
		if len(outs) == 0 {
			t.Fatalf("write %d produced no outputs", seq)
		}
	}
	write(n1, 1, "first")
	write(n1, 2, "second")
	digest, _ := n1.Log().Digest(0)
	proof := &wire.BlockProof{Edge: "edge-1", BID: 0, Digest: digest}
	proof.CloudSig = wcrypto.SignMsg(keys["cloud"], proof)
	n1.Receive(2, wire.Envelope{From: "cloud", To: "edge-1", Msg: proof})
	if err := n1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh node over the same directory.
	n2, recovered, err := NewPersistent(cfg, keys["edge-1"], reg, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.CloseStore()
	if recovered != 2 {
		t.Fatalf("recovered %d blocks, want 2", recovered)
	}
	// The certified block serves a Phase II read.
	outs := n2.Receive(3, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{BID: 0, ReqID: 1}})
	resp := outs[0].Msg.(*wire.ReadResponse)
	if !resp.OK || !resp.HasProof {
		t.Fatalf("post-restart read = ok=%v proof=%v", resp.OK, resp.HasProof)
	}
	if string(resp.Block.Entries[0].Value) != "first" {
		t.Fatalf("post-restart content = %q", resp.Block.Entries[0].Value)
	}
	// Replays of pre-crash entries are not re-appended: they get a
	// re-acknowledgement built from the block that already holds them.
	write2 := func(seq uint64, val string) []wire.Envelope {
		e := wire.Entry{Client: "c1", Seq: seq, Value: []byte(val)}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		return n2.Receive(4, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}})
	}
	reack := write2(1, "first")
	if len(reack) == 0 {
		t.Fatal("pre-crash replay got no re-acknowledgement")
	}
	if ack, ok := reack[0].Msg.(*wire.PutResponse); !ok || ack.BID != 0 {
		t.Fatalf("replay re-ack = %T, want PutResponse for block 0", reack[0].Msg)
	}
	if n2.Log().NumBlocks() != 2 {
		t.Fatalf("replay appended a block: %d blocks", n2.Log().NumBlocks())
	}
	// A reused seq carrying different content is a replay-defence
	// violation, not a resend: rejected outright.
	if outs := write2(1, "forged"); len(outs) != 0 {
		t.Fatalf("different-content replay was answered: %v", outs)
	}
	if n2.Log().NumBlocks() != 2 {
		t.Fatalf("different-content replay appended a block: %d blocks", n2.Log().NumBlocks())
	}
	// New writes continue with the right ids.
	if outs := write2(3, "post-restart"); len(outs) == 0 {
		t.Fatal("post-restart write failed")
	}
	if n2.Log().NumBlocks() != 3 {
		t.Fatalf("blocks after restart write = %d", n2.Log().NumBlocks())
	}
}
