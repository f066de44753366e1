package integration

import (
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestBatchCertKindsInert: a certificate is one BlockCertify up and one
// BlockProof down. The batched kinds still decode, but nothing reads them:
// a correctly signed BlockCertifyBatch reaching the cloud, and a correctly
// signed BlockCertBatch reaching the leader, a follower and a client,
// answer nothing, certify nothing and spend no signature check.
func TestBatchCertKindsInert(t *testing.T) {
	// The leader never certifies, so block 0 stays acked, mirrored and
	// uncertified: exactly what a batch over it would have certified.
	w := newRWorld(t, rworldOpts{leaderFault: &edge.Fault{DropCertify: true}})
	op := w.add(w.c1, "m0")
	w.add(w.c2, "m1")
	w.settle(t, 100*ms)
	if op.Phase != core.PhaseI || w.r1.LogBlocks() != 1 {
		t.Fatalf("setup: phase %v, follower blocks %d; want an acked, mirrored block", op.Phase, w.r1.LogBlocks())
	}
	d, err := w.leader.Log().Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	certify := &wire.BlockCertifyBatch{Edge: "edge-1", Digests: [][]byte{d}}
	certify.EdgeSig = wcrypto.SignMsg(wcrypto.DeterministicKey("edge-1"), certify)
	cert := &wire.BlockCertBatch{Edge: "edge-1", Digests: [][]byte{d}}
	cert.CloudSig = wcrypto.SignMsg(wcrypto.DeterministicKey("cloud"), cert)

	// Counted from here on: every signature check any node makes.
	m := obs.NewRegistry()
	w.reg.AttachMetrics(m, "world")

	certifies := w.cloud.Stats().Certifies
	for _, c := range []struct {
		node core.Handler
		env  wire.Envelope
	}{
		{w.cloud, wire.Envelope{From: "edge-1", To: "cloud", Msg: certify}},
		{w.leader, wire.Envelope{From: "cloud", To: "edge-1", Msg: cert}},
		{w.r1, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: cert}},
		{w.c1, wire.Envelope{From: "cloud", To: "c1", Msg: cert}},
	} {
		if out := c.node.Receive(w.sim.Now(), c.env); len(out) != 0 {
			t.Errorf("%s answered a %T: %v", c.env.To, c.env.Msg, out)
		}
	}
	for _, name := range []string{"wedge_wcrypto_verify_memo_hits_total", "wedge_wcrypto_verify_memo_misses_total", "wedge_wcrypto_bad_signatures_total"} {
		if got := m.CounterValue(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := w.cloud.Stats().Certifies; got != certifies {
		t.Errorf("cloud Certifies %d -> %d", certifies, got)
	}
	if _, ok := w.cloud.Certs().Lookup("edge-1", 0); ok {
		t.Error("cloud certified block 0 from a batch")
	}
	if l, f := w.leader.CertifiedBlocks(), w.r1.CertifiedBlocks(); l != 0 || f != 0 {
		t.Errorf("certified blocks: leader %d, follower %d; want 0, 0", l, f)
	}
	if op.Phase != core.PhaseI {
		t.Errorf("client op phase = %v, want Phase I", op.Phase)
	}
}
