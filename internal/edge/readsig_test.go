package edge

import (
	"fmt"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// An edge signs a read answer only where the client can need it as
// evidence: a get or scan whose L0 window pins a digest, a Phase I read by
// BID, a denial. A certified answer proves itself and goes unsigned. These
// tests serve real answers from a leader over a merged index and settle
// them at a real client, counting signatures on
// wedge_edge_read_signatures_total.

// readRig is a mergeRig after one L0 merge: level 1 holds a..d, and the
// L0 window holds block 2 (e, f), certified. c1's client session reads
// from the leader.
type readRig struct {
	*mergeRig
	c *client.Core
}

func newReadRig(t *testing.T) *readRig {
	t.Helper()
	r := &readRig{mergeRig: newMergeRig(t)}
	resp, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, r.startMerge(t, "a", "b", "c", "d")))
	r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp})
	r.putBlock(t, "e", "f")
	if r.leader.L0From() != 2 || r.leader.CertifiedBlocks() != 3 {
		t.Fatalf("rig: l0From %d, %d certified", r.leader.L0From(), r.leader.CertifiedBlocks())
	}
	r.c = client.New(client.Config{ID: "c1", Edge: "edge-1", Cloud: "cloud", ProofTimeout: 100 * second}, r.keys["c1"], r.reg)
	return r
}

// signed is the number of read answers the leader has signed.
func (r *readRig) signed() uint64 { return r.leader.m.readSigs.Value() }

// serve sends the client's request to the leader and returns the answer,
// undelivered.
func (r *readRig) serve(t *testing.T, req []wire.Envelope) wire.Envelope {
	t.Helper()
	r.now++
	out := r.leader.Receive(r.now, req[0])
	if len(out) != 1 || out[0].To != "c1" {
		t.Fatalf("answer: %v", kindsOf(out))
	}
	return out[0]
}

// deliver hands envs addressed to c1 to the client and returns what it
// sent in reply.
func (r *readRig) deliver(envs ...wire.Envelope) []wire.Envelope {
	var out []wire.Envelope
	for _, env := range envs {
		if env.To == "c1" {
			out = append(out, r.c.Receive(r.now, env)...)
		}
	}
	return out
}

// edgeSig returns the signature a read answer carries and whether it
// verifies under the leader's key.
func (r *readRig) edgeSig(env wire.Envelope) ([]byte, bool) {
	switch m := env.Msg.(type) {
	case *wire.ScanResponse:
		return m.EdgeSig, wcrypto.VerifyMsg(r.reg, "edge-1", m, m.EdgeSig) == nil
	case *wire.ReadResponse:
		return m.EdgeSig, wcrypto.VerifyMsg(r.reg, "edge-1", m, m.EdgeSig) == nil
	}
	return nil, false
}

// TestCertifiedAnswersUnsigned: a get answered from level 1 under the
// signed global root, a scan over the level and the certified window, and
// a read of the certified block by BID cost the edge no signature, carry
// none, and each settles Phase II at the client.
func TestCertifiedAnswersUnsigned(t *testing.T) {
	r := newReadRig(t)
	get, req := r.c.Get(r.now, []byte("b"))
	scanOp, sreq := r.c.Scan(r.now, []byte("a"), []byte("z"), 0)
	read, rreq := r.c.Read(r.now, 2)
	for _, c := range []struct {
		name string
		op   *client.Op
		req  []wire.Envelope
	}{{"get", get, req}, {"scan", scanOp, sreq}, {"read", read, rreq}} {
		ans := r.serve(t, c.req)
		if sig, _ := r.edgeSig(ans); len(sig) != 0 {
			t.Fatalf("certified %s carries a %d-byte edge signature", c.name, len(sig))
		}
		if out := r.deliver(ans); len(out) != 0 {
			t.Fatalf("certified %s: client sent %v", c.name, kindsOf(out))
		}
		if c.op.Phase != core.PhaseII || c.op.Err != nil {
			t.Fatalf("certified %s: phase %v err %v", c.name, c.op.Phase, c.op.Err)
		}
	}
	if !get.Found || string(get.GotValue) != "v-b" || len(scanOp.ScanKVs) != 6 || read.Block == nil || read.Block.ID != 2 {
		t.Fatalf("results: get %v %q, scan %d rows, read %v", get.Found, get.GotValue, len(scanOp.ScanKVs), read.Block)
	}
	if n := r.signed(); n != 0 {
		t.Fatalf("edge signed %d certified answers, want 0", n)
	}
	if n := r.c.Stats().VerifyFailures; n != 0 {
		t.Fatalf("client counted %d verify failures", n)
	}
}

// TestPhaseIAnswersSigned: with block 3 cut and not yet certified, a get
// and a scan that reach it and a read of it by BID are each signed once,
// the signature verifies, and the client holds each in Phase I until the
// block's proof settles it; a denial is signed too.
func TestPhaseIAnswersSigned(t *testing.T) {
	r := newReadRig(t)
	certify := r.writeBlock(t, "g", "h")
	get, req := r.c.Get(r.now, []byte("g"))
	scanOp, sreq := r.c.Scan(r.now, []byte("a"), []byte("z"), 0)
	read, rreq := r.c.Read(r.now, 3)
	ops := []*client.Op{get, scanOp, read}
	for i, req := range [][]wire.Envelope{req, sreq, rreq} {
		ans := r.serve(t, req)
		if _, ok := r.edgeSig(ans); !ok {
			t.Fatalf("Phase I answer %d is not signed by the edge", i)
		}
		r.deliver(ans)
		if ops[i].Phase != core.PhaseI || ops[i].Done {
			t.Fatalf("Phase I answer %d: phase %v done %v err %v", i, ops[i].Phase, ops[i].Done, ops[i].Err)
		}
	}
	if n := r.signed(); n != 3 {
		t.Fatalf("edge signed %d Phase I answers, want 3", n)
	}
	r.deliver(r.certify(certify)...)
	for i, op := range ops {
		if op.Phase != core.PhaseII || op.Err != nil {
			t.Fatalf("answer %d after the proof: phase %v err %v", i, op.Phase, op.Err)
		}
	}
	if !get.Found || string(get.GotValue) != "v-g" || len(scanOp.ScanKVs) != 8 {
		t.Fatalf("results: get %v %q, scan %d rows", get.Found, get.GotValue, len(scanOp.ScanKVs))
	}

	_, dreq := r.c.Read(r.now, 99)
	denial := r.serve(t, dreq)
	if m := denial.Msg.(*wire.ReadResponse); m.OK {
		t.Fatal("missing block served")
	}
	if _, ok := r.edgeSig(denial); !ok {
		t.Fatal("denial is not signed by the edge")
	}
	if n := r.signed(); n != 4 {
		t.Fatalf("edge signed %d answers, want 4", n)
	}
}

// TestFaultyEdgeSignsCertifiedLies: on an all-certified window a faulty
// edge still signs, so its omission and truncation lies — told in answers
// an honest edge would leave unsigned — verify as its own and convict.
func TestFaultyEdgeSignsCertifiedLies(t *testing.T) {
	for _, f := range []*Fault{{ScanOmitKey: []byte("c")}, {ScanTruncate: true}} {
		r := newReadRig(t)
		r.leader.cfg.Fault = f
		op, req := r.c.Scan(r.now, []byte("a"), []byte("z"), 0)
		ans := r.serve(t, req)
		if _, ok := r.edgeSig(ans); !ok {
			t.Fatalf("%+v: lie on a certified window is not signed", f)
		}
		out := r.deliver(ans)
		d, env := only[*wire.Dispute](t, out)
		if d.Kind != wire.DisputeScanLie || !op.Done || op.Err == nil {
			t.Fatalf("%+v: dispute %v, op done %v err %v", f, d.Kind, op.Done, op.Err)
		}
		v, _ := only[*wire.Verdict](t, r.cloud.Receive(r.now, env))
		if !v.Guilty {
			t.Fatalf("%+v: lie acquitted: %s", f, v.Reason)
		}
	}
}

// benchAssembleScan times one AssembleScan per iteration: a get of a key
// in the oldest of four 100-entry blocks from client c2 over keys
// key00000, key00001, …, the window the client's BenchmarkGetResponse*
// verifies. With certified false the newest block has no certificate, so
// the window pins its digest and the edge signs.
func benchAssembleScan(b *testing.B, certified bool) {
	f := newFixture(b, Config{BatchSize: 100, L0Threshold: 100})
	for blk := 0; blk < 4; blk++ {
		entries := make([]wire.Entry, 100)
		for i := range entries {
			k := blk*100 + i
			entries[i] = wire.Entry{Client: "c2", Seq: uint64(k + 1), Key: []byte(fmt.Sprintf("key%05d", k)), Value: make([]byte, 100)}
		}
		f.put(int64(blk+1), "c2", entries...)
		if blk < 3 || certified {
			f.node.Receive(int64(blk+1), wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(b, uint64(blk))})
		}
	}
	start, end := wire.PointRange([]byte("key00042"))
	resp, err := f.node.AssembleScan(start, end, 0)
	if err != nil || len(resp.Proof.L0Pruned) != 4 || (len(resp.EdgeSig) > 0) == certified {
		b.Fatalf("answer: err %v, %d slices, %d-byte signature", err, len(resp.Proof.L0Pruned), len(resp.EdgeSig))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.node.AssembleScan(start, end, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembleScanCertified is a get over an all-certified window:
// the edge signs nothing.
func BenchmarkAssembleScanCertified(b *testing.B) { benchAssembleScan(b, true) }

// BenchmarkAssembleScanPhaseI is the same get with the newest block
// uncertified: one Ed25519 signature. The gap to
// BenchmarkAssembleScanCertified is that signature.
func BenchmarkAssembleScanPhaseI(b *testing.B) { benchAssembleScan(b, false) }
