package edge

import (
	"fmt"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestGroupCommitWithholdsAcksUntilSharedSync drives an edge configured
// with a group-commit window: blocks cut inside the window produce no
// acknowledgements, the window-expiry flush releases every withheld
// acknowledgement after one shared fsync, and a restart recovers every
// acknowledged block — the durability contract group commit must keep. A
// zero window is the same path: each block's acknowledgements leave in
// the turn that cut it, after a sync of its own.
func TestGroupCommitWithholdsAcksUntilSharedSync(t *testing.T) {
	for _, window := range []int64{100, 0} { // ns of virtual time
		t.Run(fmt.Sprintf("SyncEvery=%d", window), func(t *testing.T) {
			testGroupCommit(t, window)
		})
	}
}

func testGroupCommit(t *testing.T, window int64) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"edge-1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	dir := t.TempDir()
	cfg := Config{
		ID: "edge-1", Cloud: "cloud",
		BatchSize: 1, L0Threshold: 100,
		SyncEvery: window,
	}
	n1, _, err := NewPersistent(cfg, keys["edge-1"], reg, dir, true)
	if err != nil {
		t.Fatal(err)
	}

	write := func(now int64, seq uint64) []wire.Envelope {
		e := wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}}
		e.Sig = wcrypto.SignMsg(keys["c1"], &e)
		return n1.Receive(now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}})
	}

	if window == 0 {
		// Every block is acknowledged in its own turn, one fsync each.
		for seq := uint64(1); seq <= 4; seq++ {
			before := n1.store.Syncs()
			k := kindsOf(write(int64(seq), seq))
			if k[wire.KindPutResponse] != 1 || k[wire.KindBlockCertify] != 1 {
				t.Fatalf("write %d released %v, want its add response + certify in the same turn", seq, k)
			}
			if got := n1.store.Syncs() - before; got != 1 {
				t.Fatalf("write %d issued %d fsyncs, want 1", seq, got)
			}
		}
	} else {
		// Three blocks cut inside the window: acknowledgements withheld.
		for seq := uint64(1); seq <= 3; seq++ {
			if out := write(int64(seq), seq); out != nil {
				t.Fatalf("write %d acknowledged before group-commit sync: %v", seq, kindsOf(out))
			}
		}
		if got := n1.Stats().BlocksCut; got != 3 {
			t.Fatalf("blocks cut = %d, want 3", got)
		}
		syncsBefore := n1.store.Syncs()

		// Window expires: one Tick releases every withheld output.
		out := n1.Tick(500)
		k := kindsOf(out)
		if k[wire.KindPutResponse] != 3 || k[wire.KindBlockCertify] != 3 {
			t.Fatalf("flush released %v, want 3 add responses + 3 certifies", k)
		}
		if got := n1.store.Syncs() - syncsBefore; got != 1 {
			t.Fatalf("flush issued %d fsyncs, want 1 shared", got)
		}

		// A fourth block opens a fresh window: withheld on arrival,
		// released by the next window-expiry flush.
		if out := write(1000, 4); out != nil {
			t.Fatalf("write 4 acknowledged before its window closed: %v", kindsOf(out))
		}
		if k := kindsOf(n1.Tick(1200)); k[wire.KindPutResponse] != 1 {
			t.Fatalf("second flush released %v, want 1 add response", k)
		}
	}

	if err := n1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Restart: every acknowledged block must be recovered.
	n2, recovered, err := NewPersistent(cfg, keys["edge-1"], reg, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.CloseStore()
	if recovered != 4 {
		t.Fatalf("recovered %d blocks, want every acknowledged block (4)", recovered)
	}
}
