package edge

import (
	"bytes"
	"testing"

	"wedgechain/internal/cloud"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Compaction between a leader, its follower and a real cloud node, driven
// by hand so each test decides which merge message arrives, arrives
// altered, or is lost.

const second = int64(1e9)

type mergeRig struct {
	*replicaPair
	cloud *cloud.Node
	now   int64
	seq   uint64
}

// newMergeRig pairs newReplicaPair's leader (two-entry blocks, merges L0
// at two certified blocks) with a cloud.
func newMergeRig(t *testing.T) *mergeRig {
	t.Helper()
	p := newReplicaPair(t)
	p.leader.SetL0Threshold(2)
	return &mergeRig{
		replicaPair: p,
		cloud:       cloud.New(cloud.Config{ID: "cloud", Levels: 3, PageCap: 2}, p.keys["cloud"], p.reg),
	}
}

// putBlock writes one block of two puts through the leader, certifies it at
// the cloud, delivers the proof, and returns what the leader emitted on it
// — a MergeRequest when the block crossed the L0 threshold.
func (r *mergeRig) putBlock(t *testing.T, k1, k2 string) []wire.Envelope {
	t.Helper()
	return r.certify(r.writeBlock(t, k1, k2))
}

// writeBlock writes one block of two puts through the leader and returns
// its certification request, undelivered.
func (r *mergeRig) writeBlock(t *testing.T, k1, k2 string) wire.Envelope {
	t.Helper()
	var certify wire.Envelope
	for _, k := range []string{k1, k2} {
		r.now++
		r.seq++
		e := wire.Entry{Client: "c1", Seq: r.seq, Key: []byte(k), Value: []byte("v-" + k)}
		for _, env := range r.leader.Receive(r.now, put(r.keys["c1"], e)) {
			if env.Msg.MsgKind() == wire.KindBlockCertify {
				certify = env
			}
		}
	}
	if certify.Msg == nil {
		t.Fatal("no block cut")
	}
	return certify
}

// certify delivers a certification request to the cloud and the cloud's
// answer to the leader, and returns what the leader emitted on it.
func (r *mergeRig) certify(certify wire.Envelope) []wire.Envelope {
	var out []wire.Envelope
	for _, env := range r.cloud.Receive(r.now, certify) {
		if env.To == "edge-1" {
			out = append(out, r.leader.Receive(r.now, env)...)
		}
	}
	return out
}

func only[M wire.Message](t *testing.T, envs []wire.Envelope) (m M, env wire.Envelope) {
	t.Helper()
	n := 0
	for _, e := range envs {
		if mm, ok := e.Msg.(M); ok {
			m, env = mm, e
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want one %T, got %d in %v", m, n, kindsOf(envs))
	}
	return m, env
}

// startMerge fills the L0 window and returns the leader's merge request.
func (r *mergeRig) startMerge(t *testing.T, keys ...string) wire.Envelope {
	t.Helper()
	r.putBlock(t, keys[0], keys[1])
	_, env := only[*wire.MergeRequest](t, r.putBlock(t, keys[2], keys[3]))
	return env
}

// TestMergeRequestSignedOverHeldCommitments: the leader signs with the
// digests it holds; the signature must be the one a verifier recomputes
// from the shipped blocks alone. No request ships level pages: a merge
// into a non-empty level derives from the leader's own pages.
func TestMergeRequestSignedOverHeldCommitments(t *testing.T) {
	r := newMergeRig(t)
	req, env := only[*wire.MergeRequest](t, []wire.Envelope{r.startMerge(t, "a", "b", "c", "a")})
	if err := wcrypto.VerifyMsg(r.reg, "edge-1", req, req.EdgeSig); err != nil {
		t.Fatalf("L0 merge request: %v", err)
	}
	resp, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, env))
	r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp})
	req2, env2 := only[*wire.MergeRequest](t, []wire.Envelope{r.startMerge(t, "d", "e", "f", "b")})
	if len(req2.SrcPages)+len(req2.DstPages) != 0 {
		t.Fatal("a merge into a non-empty level shipped level pages")
	}
	if err := wcrypto.VerifyMsg(r.reg, "edge-1", req2, req2.EdgeSig); err != nil {
		t.Fatalf("merge into a non-empty level: %v", err)
	}
	resp2, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, env2))
	r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp2})
	if idx := r.leader.Index(); idx.Global().Epoch != 2 || idx.TotalRecords() != 6 || !bytes.Equal(idx.Roots()[0], resp2.Roots[0]) {
		t.Fatalf("second merge not installed: epoch %d, %d records", idx.Global().Epoch, idx.TotalRecords())
	}
}

// TestLeaderDerivesAndMirrorsMergedPages: the cloud's response carries no
// pages; the leader installs the level it derives from its in-flight
// request, and mirrors the response with those pages attached.
func TestLeaderDerivesAndMirrorsMergedPages(t *testing.T) {
	r := newMergeRig(t)
	resp, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, r.startMerge(t, "a", "b", "c", "a")))
	if len(resp.NewPages) != 0 {
		t.Fatalf("cloud shipped %d pages", len(resp.NewPages))
	}
	out := r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp})
	idx := r.leader.Index()
	if idx.Global().Epoch != 1 || r.leader.L0From() != 2 || idx.TotalRecords() != 3 {
		t.Fatalf("leader after merge: epoch %d l0From %d records %d", idx.Global().Epoch, r.leader.L0From(), idx.TotalRecords())
	}
	if !bytes.Equal(idx.Roots()[0], resp.Roots[0]) {
		t.Fatal("leader root differs from the cloud's")
	}
	mirror, env := only[*wire.MergeResponse](t, out)
	if env.To != "edge-1.r1" || len(mirror.NewPages) != len(idx.Pages(1)) {
		t.Fatalf("mirror to %s with %d pages", env.To, len(mirror.NewPages))
	}
	if !bytes.Equal(mirror.CloudSig, resp.CloudSig) {
		t.Fatal("mirror does not carry the cloud's signature")
	}
}

// TestFollowerRefusesForgedMirroredPages: the pages a leader attaches are
// outside the cloud's signature, so the follower accepts them only if they
// hash to the signed root: altered, cut or missing pages change nothing,
// the honest mirror installs.
func TestFollowerRefusesForgedMirroredPages(t *testing.T) {
	r := newMergeRig(t)
	resp, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, r.startMerge(t, "a", "b", "c", "a")))
	mirror, _ := only[*wire.MergeResponse](t, r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: resp}))

	deliver := func(m *wire.MergeResponse) {
		r.follower.Receive(r.now, wire.Envelope{From: "edge-1", To: "edge-1.r1", Msg: m})
	}
	untouched := func(when string) {
		t.Helper()
		if idx := r.follower.Index(); idx.Global().Epoch != 0 || idx.TotalRecords() != 0 || r.follower.L0From() != 0 {
			t.Fatalf("%s: follower installed (epoch %d, %d records, l0From %d)", when, idx.Global().Epoch, idx.TotalRecords(), r.follower.L0From())
		}
	}

	altered := *mirror
	altered.NewPages = append([]wire.Page(nil), mirror.NewPages...)
	altered.NewPages[0].KVs = append([]wire.KV(nil), altered.NewPages[0].KVs...)
	altered.NewPages[0].KVs[0].Value = []byte("forged")
	deliver(&altered)
	untouched("altered page")

	// A page cut for a read folds to the signed leaf but lacks records.
	start, end := wire.PointRange([]byte("0")) // below every key: one record ships
	lp, err := r.leader.Index().LevelRangeProof(1, 0, 1, start, end)
	if err != nil || lp.Pages[0].Whole() {
		t.Fatalf("setup: cut %+v err %v", lp, err)
	}
	cut := *mirror
	cut.NewPages = append([]wire.Page{lp.Pages[0]}, mirror.NewPages[1:]...)
	deliver(&cut)
	untouched("cut page")

	short := *mirror
	short.NewPages = mirror.NewPages[:len(mirror.NewPages)-1]
	deliver(&short)
	untouched("dropped page")

	deliver(resp) // the cloud's data-free response forwarded as is
	untouched("no pages")

	resigned := *mirror // scalars are under the signature
	resigned.PageSeq++
	deliver(&resigned)
	untouched("altered signed field")

	deliver(mirror)
	idx := r.follower.Index()
	if idx.Global().Epoch != 1 || r.follower.L0From() != 2 || !bytes.Equal(idx.Roots()[0], resp.Roots[0]) {
		t.Fatalf("honest mirror not installed: epoch %d l0From %d", idx.Global().Epoch, r.follower.L0From())
	}
	if got, want := mlsm.PagesKVs(idx.Pages(1)), mlsm.PagesKVs(r.leader.Index().Pages(1)); len(got) != len(want) {
		t.Fatalf("follower holds %d records, leader %d", len(got), len(want))
	}
}

// TestLeaderIgnoresResponseForAnotherRequest: only the answer to the
// request in flight installs. A cloud-signed response to an earlier
// request, replayed while a later merge is in flight, is ignored and
// leaves that merge in flight; so is any response when nothing is.
func TestLeaderIgnoresResponseForAnotherRequest(t *testing.T) {
	r := newMergeRig(t)
	resp1, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, r.startMerge(t, "a", "b", "c", "a")))
	fromCloud := func(m *wire.MergeResponse) []wire.Envelope {
		return r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: m})
	}
	fromCloud(resp1)
	if out := fromCloud(resp1); len(out) != 0 || r.leader.Index().Global().Epoch != 1 {
		t.Fatalf("duplicate response with nothing in flight: %v", kindsOf(out))
	}

	env2 := r.startMerge(t, "d", "e", "f", "b") // ReqID 2 now in flight
	if out := fromCloud(resp1); len(out) != 0 {
		t.Fatalf("replayed response to request 1 produced %v", kindsOf(out))
	}
	if r.leader.Index().Global().Epoch != 1 || r.leader.L0From() != 2 {
		t.Fatal("replayed response moved the index")
	}
	// Renumbering the old response to match breaks the cloud's signature.
	renumbered := *resp1
	renumbered.ReqID = 2
	fromCloud(&renumbered)
	if r.leader.Index().Global().Epoch != 1 {
		t.Fatal("renumbered response installed")
	}
	// Request 2 is still in flight: its real answer installs.
	resp2, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, env2))
	fromCloud(resp2)
	if r.leader.Index().Global().Epoch != 2 || r.leader.L0From() != 4 {
		t.Fatalf("answer to the in-flight request not installed: epoch %d l0From %d",
			r.leader.Index().Global().Epoch, r.leader.L0From())
	}
}

// TestOverdueMergeIsResent: with no cut block awaiting its certificate, a
// merge whose answer has not come within the stall period is re-sent
// unchanged — first a lost request, then, after twice the wait, a lost
// response — until the level installs; the cloud merges once.
func TestOverdueMergeIsResent(t *testing.T) {
	r := newMergeRig(t)
	first := r.startMerge(t, "a", "b", "c", "a") // lost on its way to the cloud

	if out := r.leader.Tick(r.now + second/2); kindsOf(out)[wire.KindMergeRequest] != 0 {
		t.Fatal("merge re-sent before it was overdue")
	}
	r.now += second
	_, again := only[*wire.MergeRequest](t, r.leader.Tick(r.now))
	if again.Msg != first.Msg {
		t.Fatal("the retry is not the request in flight")
	}
	lost, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, again)) // merged; answer lost
	if !lost.OK {
		t.Fatalf("merge rejected: %s", lost.Reason)
	}
	if out := r.leader.Tick(r.now + 3*second/2); kindsOf(out)[wire.KindMergeRequest] != 0 {
		t.Fatal("retry wait not doubled by the re-send")
	}
	r.now += 2 * second
	_, third := only[*wire.MergeRequest](t, r.leader.Tick(r.now))
	replay, _ := only[*wire.MergeResponse](t, r.cloud.Receive(r.now, third))
	if !replay.OK || !bytes.Equal(replay.CloudSig, lost.CloudSig) {
		t.Fatalf("cloud did not replay its answer: ok=%v reason=%q", replay.OK, replay.Reason)
	}
	r.leader.Receive(r.now, wire.Envelope{From: "cloud", To: "edge-1", Msg: replay})
	if r.leader.Index().Global().Epoch != 1 || r.leader.L0From() != 2 {
		t.Fatal("replayed answer did not install")
	}
	if st := r.cloud.Stats(); st.Merges != 1 || st.MergeRejects != 0 {
		t.Fatalf("cloud merges=%d rejects=%d, want 1/0", st.Merges, st.MergeRejects)
	}
	if got := r.leader.m.mergeRetries.Value(); got != 2 {
		t.Fatalf("merge retries = %d, want 2", got)
	}
	r.now += 2 * second
	if out := r.leader.Tick(r.now); kindsOf(out)[wire.KindMergeRequest] != 0 {
		t.Fatal("merge re-sent after its answer installed")
	}
	if _, flagged := r.cloud.Flagged("edge-1"); flagged {
		t.Fatal("retrying convicted the edge")
	}
}
