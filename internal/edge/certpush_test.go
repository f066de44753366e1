package edge

import (
	"slices"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/obs"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// The leader pushes a certificate it installs to the sessions that
// recently sent it a ScanRequest, one turn after it forwards the proof to
// the block's waiters, when no other cut block awaits its certificate. A
// reader checks the certificate on arrival, so its later get over the
// block runs no Ed25519 check.

// tap counts the frames a node receives, by sender and kind.
type tap struct {
	core.Handler
	got map[wire.NodeID]map[wire.Kind]int
}

func newTap(h core.Handler) *tap {
	return &tap{Handler: h, got: map[wire.NodeID]map[wire.Kind]int{}}
}

func (t *tap) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if t.got[env.From] == nil {
		t.got[env.From] = map[wire.Kind]int{}
	}
	t.got[env.From][env.Msg.MsgKind()]++
	return t.Handler.Receive(now, env)
}

// proofs is the number of block proofs the node received from from.
func (t *tap) proofs(from wire.NodeID) int { return t.got[from][wire.KindBlockProof] }

// pushWorld is a sim world of the cloud, a leader (two-entry blocks, no
// merge) and three sessions, each with a registry of its own so its
// Ed25519 checks count alone: c1 writes, c2 reads by key, c3 reads by BID.
type pushWorld struct {
	sim        *sim.Sim
	leader     *Node
	edgeObs    *obs.Registry
	c          map[wire.NodeID]*client.Core
	taps       map[wire.NodeID]*tap
	sessionObs map[wire.NodeID]*obs.Registry
}

func newPushWorld(t *testing.T) *pushWorld {
	t.Helper()
	ids := []wire.NodeID{"cloud", "edge-1", "c1", "c2", "c3"}
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	registry := func() *wcrypto.Registry {
		reg := wcrypto.NewRegistry()
		for _, id := range ids {
			reg.Register(id, wcrypto.DeterministicKey(id).Pub)
		}
		return reg
	}
	for _, id := range ids {
		keys[id] = wcrypto.DeterministicKey(id)
	}
	w := &pushWorld{
		edgeObs:    obs.NewRegistry(),
		c:          map[wire.NodeID]*client.Core{},
		taps:       map[wire.NodeID]*tap{},
		sessionObs: map[wire.NodeID]*obs.Registry{},
		sim:        sim.New(sim.Config{TickEvery: 5e6, DefaultLink: sim.Link{Latency: 1e6}}),
	}
	w.leader = New(Config{ID: "edge-1", Cloud: "cloud", BatchSize: 2, FlushEvery: -1, L0Threshold: 100, Metrics: w.edgeObs}, keys["edge-1"], registry())
	w.sim.Add(cloud.New(cloud.Config{ID: "cloud"}, keys["cloud"], registry()))
	w.sim.Add(w.leader)
	for _, id := range ids[2:] {
		reg := registry()
		w.sessionObs[id] = obs.NewRegistry()
		reg.AttachMetrics(w.sessionObs[id], string(id))
		w.c[id] = client.New(client.Config{ID: id, Edge: "edge-1", Cloud: "cloud", ProofTimeout: 10 * second}, keys[id], reg)
		w.taps[id] = newTap(w.c[id])
		w.sim.Add(w.taps[id])
	}
	return w
}

// run injects an operation's first frames and lets the world settle.
func (w *pushWorld) run(op *client.Op, envs []wire.Envelope) *client.Op {
	w.sim.Inject(envs)
	w.sim.Drain(w.sim.Now() + second)
	return op
}

// write has c1 put a block of two keys and settles it through Phase II.
func (w *pushWorld) write(t *testing.T, k1, k2 string) {
	t.Helper()
	c1, now := w.c["c1"], w.sim.Now()
	a, envs := c1.Put(now, []byte(k1), []byte("v-"+k1))
	b, more := c1.Put(now, []byte(k2), []byte("v-"+k2))
	w.sim.Inject(append(envs, more...))
	w.sim.Drain(w.sim.Now() + second)
	for _, op := range []*client.Op{a, b} {
		if op.Phase != core.PhaseII || op.Err != nil {
			t.Fatalf("put %q: phase %v err %v", op.Key, op.Phase, op.Err)
		}
	}
}

// checks is the number of Ed25519 verifications id's session has run:
// its registry's memo misses.
func (w *pushWorld) checks(id wire.NodeID) uint64 {
	return w.sessionObs[id].CounterValue("wedge_wcrypto_verify_memo_misses_total")
}

// pushed is the leader's wedge_edge_cert_pushes_total.
func (w *pushWorld) pushed() uint64 {
	return w.edgeObs.CounterValue("wedge_edge_cert_pushes_total")
}

// TestReaderGetRunsNoCertCheck: once the writer's block is certified and
// its pushed proof delivered, the reader's get over that block settles
// Phase II with no Ed25519 check: the check ran when the proof arrived.
func TestReaderGetRunsNoCertCheck(t *testing.T) {
	w := newPushWorld(t)
	c2 := w.c["c2"]
	if op := w.run(c2.Get(w.sim.Now(), []byte("a"))); op.Phase != core.PhaseII || op.Found {
		t.Fatalf("get before any write: phase %v found %v err %v", op.Phase, op.Found, op.Err)
	}
	w.write(t, "a", "b")
	before := w.checks("c2")
	op := w.run(c2.Get(w.sim.Now(), []byte("a")))
	if op.Phase != core.PhaseII || op.Err != nil || !op.Found || string(op.GotValue) != "v-a" {
		t.Fatalf("get: phase %v err %v found %v value %q", op.Phase, op.Err, op.Found, op.GotValue)
	}
	if n := w.checks("c2") - before; n != 0 {
		t.Fatalf("get over a certified block ran %d Ed25519 checks, want 0", n)
	}
	if n, m := w.taps["c2"].proofs("edge-1"), w.taps["c1"].proofs("edge-1"); n != 1 || m != 1 {
		t.Fatalf("reader received %d proofs of the writer's block, the writer %d; want 1 each", n, m)
	}
	if n := w.pushed(); n != 1 {
		t.Fatalf("wedge_edge_cert_pushes_total = %d, want 1", n)
	}
}

// TestOnlyScanSendersGetPushes: a session that only writes, or that reads
// by BID, gets no proof beyond those it waits on; a writer that also reads
// gets one copy per block, not two.
func TestOnlyScanSendersGetPushes(t *testing.T) {
	w := newPushWorld(t)
	w.write(t, "a", "b") // block 0
	if op := w.run(w.c["c3"].Read(w.sim.Now(), 0)); op.Phase != core.PhaseII || op.Err != nil {
		t.Fatalf("read by BID: phase %v err %v", op.Phase, op.Err)
	}
	w.run(w.c["c1"].Get(w.sim.Now(), []byte("a")))
	w.run(w.c["c2"].Scan(w.sim.Now(), []byte("a"), []byte("z"), 0))
	w.write(t, "c", "d") // block 1
	for id, want := range map[wire.NodeID]int{"c1": 2, "c2": 1, "c3": 0} {
		if n := w.taps[id].proofs("edge-1"); n != want {
			t.Errorf("%s received %d proofs, want %d", id, n, want)
		}
	}
	if n := w.pushed(); n != 1 {
		t.Fatalf("wedge_edge_cert_pushes_total = %d, want 1 (block 1 to c2)", n)
	}
}

// scanFrom has the rig's leader serve a scan to session c.
func (r *mergeRig) scanFrom(c wire.NodeID) []wire.Envelope {
	r.now++
	return r.leader.Receive(r.now, wire.Envelope{From: c, To: "edge-1", Msg: &wire.ScanRequest{ReqID: 1, Start: []byte("a"), End: []byte("z")}})
}

// TestPushLeavesTheTurnAfter: the turn that installs a certificate
// forwards it to the writer only; the readers' copies leave at the end of
// the leader's next turn, after that turn's own outputs, and not to a
// reader whose answer in that turn carried the certificate already.
func TestPushLeavesTheTurnAfter(t *testing.T) {
	r := newMergeRig(t)
	r.scanFrom("c2")
	r.scanFrom("c3")
	out := r.certify(r.writeBlock(t, "a", "b"))
	if _, env := only[*wire.BlockProof](t, out); env.To != "c1" {
		t.Fatalf("installing turn sent the proof to %s, want the writer c1", env.To)
	}
	next := r.scanFrom("c3")
	if len(next) != 2 || next[0].Msg.MsgKind() != wire.KindScanResponse || next[0].To != "c3" {
		t.Fatalf("next turn sent %v, want c3's answer, then the push", kindsOf(next))
	}
	if p, ok := next[1].Msg.(*wire.BlockProof); !ok || next[1].To != "c2" || p.BID != 0 {
		t.Fatalf("next turn's last frame: %T to %s", next[1].Msg, next[1].To)
	}
	if out := r.leader.Tick(r.now); len(out) != 0 {
		t.Fatalf("a later turn sent %v again", kindsOf(out))
	}
	if n := r.leader.m.certPushes.Value(); n != 1 {
		t.Fatalf("wedge_edge_cert_pushes_total = %d, want 1", n)
	}
}

// TestFollowerPushesNothing: a follower asked for a scan points the reader
// at its leader and, installing the certificate, sends no client a proof.
func TestFollowerPushesNothing(t *testing.T) {
	r := newMergeRig(t)
	r.now++
	r.follower.Receive(r.now, wire.Envelope{From: "c2", To: "edge-1.r1", Msg: &wire.ScanRequest{ReqID: 1, Start: []byte("a"), End: []byte("z")}})
	var certify wire.Envelope
	for _, k := range []string{"a", "b"} {
		r.now++
		r.seq++
		for _, env := range r.leader.Receive(r.now, put(r.keys["c1"], wire.Entry{Client: "c1", Seq: r.seq, Key: []byte(k)})) {
			switch env.Msg.(type) {
			case *wire.ReplicateBlock:
				r.follower.Receive(r.now, env)
			case *wire.BlockCertify:
				certify = env
			}
		}
	}
	var out []wire.Envelope
	for _, env := range r.cloud.Receive(r.now, certify) {
		proof := env
		proof.To = "edge-1.r1"
		out = append(out, r.follower.Receive(r.now, proof)...)
	}
	r.now++
	out = append(out, r.follower.Tick(r.now)...)
	for _, env := range out {
		if env.Msg.MsgKind() == wire.KindBlockProof {
			t.Fatalf("follower sent a proof to %s", env.To)
		}
	}
	if r.follower.CertifiedBlocks() != 1 {
		t.Fatalf("follower holds %d certified blocks, want 1", r.follower.CertifiedBlocks())
	}
	if n := r.follower.m.certPushes.Value(); n != 0 {
		t.Fatalf("follower wedge_edge_cert_pushes_total = %d", n)
	}
}

// TestNoPushWhileBlocksAwaitCerts: a certificate installed while another
// cut block still awaits its own goes to its waiters only; the one that
// clears the backlog goes to the reader too.
func TestNoPushWhileBlocksAwaitCerts(t *testing.T) {
	r := newMergeRig(t)
	r.leader.SetL0Threshold(100)
	r.scanFrom("c2")
	first, second := r.writeBlock(t, "a", "b"), r.writeBlock(t, "c", "d")
	var bids []uint64
	for _, certify := range []wire.Envelope{first, second} {
		out := r.certify(certify)
		r.now++
		for _, env := range append(out, r.leader.Tick(r.now)...) {
			if p, ok := env.Msg.(*wire.BlockProof); ok && env.To == "c2" {
				bids = append(bids, p.BID)
			}
		}
	}
	if !slices.Equal(bids, []uint64{1}) {
		t.Fatalf("reader was pushed blocks %v, want [1]", bids)
	}
}

// TestPushSkipsBlocksLeavingTheWindow: a block the L0 merge in flight
// ships is pushed to nobody, and a reader that has not read since the
// previous L0 merge started drops out at the next install until it reads
// again.
func TestPushSkipsBlocksLeavingTheWindow(t *testing.T) {
	r := newMergeRig(t) // an L0 merge starts at every second certified block
	r.scanFrom("c2")
	// pushesTo certifies a block and counts the proofs c2 gets in the
	// installing turn and the next; it returns the merge request it starts.
	pushesTo := func(k1, k2 string) (n int, merge []wire.Envelope) {
		out := r.putBlock(t, k1, k2)
		r.now++
		for _, env := range append(out, r.leader.Tick(r.now)...) {
			switch env.Msg.(type) {
			case *wire.BlockProof:
				if env.To == "c2" {
					n++
				}
			case *wire.MergeRequest:
				merge = append(merge, env)
			}
		}
		return n, merge
	}
	var got []int
	for i, keys := range [][2]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}, {"i", "j"}, {"k", "l"}, {"m", "n"}} {
		if i == 6 {
			r.scanFrom("c2")
		}
		n, merge := pushesTo(keys[0], keys[1])
		got = append(got, n)
		if len(merge) > 0 {
			resp, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, merge[0]))
			r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp})
		}
	}
	// Blocks 1, 3 and 5 start the merges that ship them. The second
	// install drops c2, whose only read came before the first merge
	// started; it reads again before block 6.
	if want := []int{1, 0, 1, 0, 0, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("pushes to c2 per block: %v, want %v", got, want)
	}
}
