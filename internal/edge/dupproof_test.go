package edge

import (
	"testing"

	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// A second proof for a block already certified — the answer to a re-sent
// certify, or a frame the network duplicated — changes nothing: the node
// counted, stored, forwarded and (on a follower) synced the certificate
// when the first one arrived.

// proofFor is the cloud's signed proof of block bid of n's log.
func proofFor(t *testing.T, n *Node, cloud wcrypto.KeyPair, bid uint64) *wire.BlockProof {
	t.Helper()
	d, err := n.log.Digest(bid)
	if err != nil {
		t.Fatal(err)
	}
	p := &wire.BlockProof{Edge: "edge-1", BID: bid, Digest: d}
	p.CloudSig = wcrypto.SignMsg(cloud, p)
	return p
}

// TestLeaderIgnoresDuplicateProof: a durable leader that gets block 0's
// proof twice counts it once, stores one certificate record, and pushes it
// once to a reader.
func TestLeaderIgnoresDuplicateProof(t *testing.T) {
	r := newGCRig(t, 100)
	scan := &wire.ScanRequest{ReqID: 1}
	r.n.Receive(ms(1), wire.Envelope{From: "c2", To: "edge-1", Msg: scan}) // c2 reads the empty log
	r.write(t, ms(2), 1)
	proof := proofFor(t, r.n, r.keys["cloud"], 0)
	toReader := func(now int64) (proofs int) {
		out := r.n.Receive(now, wire.Envelope{From: "cloud", To: "edge-1", Msg: proof})
		out = append(out, r.tick(t, now+ms(1))...) // pushes leave the turn after
		for _, env := range out {
			if env.To == "c2" && env.Msg.MsgKind() == wire.KindBlockProof {
				proofs++
			}
		}
		return proofs
	}
	if got := toReader(ms(3)); got != 1 {
		t.Fatalf("first proof pushed to the reader %d times, want 1", got)
	}
	if got := toReader(ms(5)); got != 0 {
		t.Fatalf("duplicate proof pushed to the reader %d times, want 0", got)
	}
	if got := r.metrics.CounterValue("wedge_edge_certified_blocks_total"); got != 1 {
		t.Fatalf("wedge_edge_certified_blocks_total = %d, want 1", got)
	}
	if err := r.n.CloseStore(); err != nil {
		t.Fatal(err)
	}
	_, st, _, certs, err := wlog.Recover(r.dir, "edge-1", 1, r.reg, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if certs != 1 {
		t.Fatalf("store holds %d certificate records, want 1", certs)
	}
}

// TestFollowerIgnoresDuplicateProof: a durable follower syncs the
// certificate of a mirrored block once, however often the proof arrives.
func TestFollowerIgnoresDuplicateProof(t *testing.T) {
	p := newReplicaPair(t)
	metrics := obs.NewRegistry()
	f, _, err := NewPersistent(Config{ID: "edge-1.r1", Chain: "edge-1", Cloud: "cloud", BatchSize: 2, Follower: true, Metrics: metrics},
		p.keys["edge-1.r1"], p.reg, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseStore()
	f.Receive(1, wire.Envelope{From: "edge-1", To: "edge-1.r1", Msg: p.cutBlock(t, 1, 1)})
	proof := proofFor(t, f, p.keys["cloud"], 0)
	deliver := func() uint64 {
		before := f.StoreSyncs()
		f.Receive(2, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: proof})
		return f.StoreSyncs() - before
	}
	if got := deliver(); got != 1 {
		t.Fatalf("first proof ran %d fsyncs, want 1", got)
	}
	if got := deliver(); got != 0 {
		t.Fatalf("duplicate proof ran %d fsyncs, want 0", got)
	}
	if got := metrics.CounterValue("wedge_edge_certified_blocks_total"); got != 1 {
		t.Fatalf("wedge_edge_certified_blocks_total = %d, want 1", got)
	}
}
