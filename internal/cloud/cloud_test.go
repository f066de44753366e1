package cloud

import (
	"bytes"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"testing"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

type fixture struct {
	node *Node
	keys map[wire.NodeID]wcrypto.KeyPair
	reg  *wcrypto.Registry
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	cfg.ID = "cloud"
	return &fixture{node: New(cfg, keys["cloud"], reg), keys: keys, reg: reg}
}

func (f *fixture) certify(t *testing.T, bid uint64, digest []byte) []wire.Envelope {
	t.Helper()
	m := &wire.BlockCertify{Edge: "edge-1", BID: bid, Digest: digest}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	return f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
}

// TestNewStartsNoGoroutine pins that the trusted node runs only on its
// transport's turns: constructing one, with every periodic duty and a
// registry configured, adds no goroutine. (A goroutine left by an earlier
// test may exit meanwhile, so the count may fall.)
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	f := newFixture(t, Config{
		GossipEvery: 1, GossipTo: []wire.NodeID{"c1"},
		Metrics: obs.NewRegistry(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	f.certify(t, 0, wcrypto.Digest([]byte("block-0")))
	f.node.Tick(2)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d after cloud.New", before, after)
	}
}

func TestCertifyIssuesSignedProof(t *testing.T) {
	f := newFixture(t, Config{})
	d := wcrypto.Digest([]byte("block-0"))
	out := f.certify(t, 0, d)
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	proof, ok := out[0].Msg.(*wire.BlockProof)
	if !ok {
		t.Fatalf("output = %T", out[0].Msg)
	}
	if proof.BID != 0 || !bytes.Equal(proof.Digest, d) {
		t.Fatalf("proof = %+v", proof)
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", proof, proof.CloudSig); err != nil {
		t.Fatalf("proof signature: %v", err)
	}
}

// TestCertifyDuplicateResendsProof: a duplicate certify and a client's
// proof-timeout dispute over the certified block both re-deliver the
// proof signed at the first certify; no second signature is spent.
func TestCertifyDuplicateResendsProof(t *testing.T) {
	f := newFixture(t, Config{})
	blk := wire.Block{Edge: "edge-1", ID: 0, Entries: []wire.Entry{{Client: "c1", Seq: 1, Key: []byte("a"), Value: []byte("v-a")}}}
	blk.Entries[0].Sig = wcrypto.SignMsg(f.keys["c1"], &blk.Entries[0])
	d := wcrypto.BlockDigest(&blk)
	first := f.certify(t, 0, d)
	second := f.certify(t, 0, d)
	p1 := first[0].Msg.(*wire.BlockProof)
	p2 := second[0].Msg.(*wire.BlockProof)
	if !bytes.Equal(p1.CloudSig, p2.CloudSig) {
		t.Fatal("duplicate certify produced a different proof")
	}
	if f.node.Stats().Certifies != 1 {
		t.Fatalf("certify counted twice: %d", f.node.Stats().Certifies)
	}

	// The client holds the edge's honest ack and its proof timed out: the
	// dispute is not guilty and carries the cached proof.
	ev := &wire.PutResponse{BID: 0, Block: blk}
	ev.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], ev)
	out := f.dispute(t, core.BuildAddLieDispute(f.keys["c1"], "edge-1", ev))
	if len(out) != 2 {
		t.Fatalf("dispute outputs = %d, want verdict+proof", len(out))
	}
	if v := out[0].Msg.(*wire.Verdict); v.Guilty {
		t.Fatalf("honest edge convicted: %+v", v)
	}
	if p3, ok := out[1].Msg.(*wire.BlockProof); !ok || !bytes.Equal(p3.CloudSig, p1.CloudSig) {
		t.Fatalf("dispute re-delivered %T %+v, want the cached proof", out[1].Msg, out[1].Msg)
	}
	if s := f.node.Stats(); s.ProofSigns != 1 || s.ProofSigns != s.Certifies {
		t.Fatalf("ProofSigns = %d, Certifies = %d; want 1, 1", s.ProofSigns, s.Certifies)
	}
}

func TestCertifyConflictConvicts(t *testing.T) {
	f := newFixture(t, Config{})
	f.certify(t, 0, wcrypto.Digest([]byte("honest")))
	out := f.certify(t, 0, wcrypto.Digest([]byte("equivocated")))
	v, ok := out[0].Msg.(*wire.Verdict)
	if !ok || !v.Guilty {
		t.Fatalf("conflict output = %+v", out[0].Msg)
	}
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("equivocating edge not banned")
	}
	// A banned edge gets no further service.
	if out := f.certify(t, 1, wcrypto.Digest([]byte("later"))); out != nil {
		t.Fatal("banned edge still served")
	}
}

func TestCertifyRejectsBadSignature(t *testing.T) {
	f := newFixture(t, Config{})
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: wcrypto.Digest([]byte("x"))}
	m.EdgeSig = wcrypto.SignMsg(f.keys["c1"], m) // wrong signer
	out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	if out != nil {
		t.Fatal("forged certify accepted")
	}
}

func TestCertifySpoofedFromIgnored(t *testing.T) {
	f := newFixture(t, Config{})
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: wcrypto.Digest([]byte("x"))}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	if out := f.node.Receive(1, wire.Envelope{From: "c1", To: "cloud", Msg: m}); out != nil {
		t.Fatal("certify with mismatched From accepted")
	}
}

func TestFullDataCertifyBodyMismatchConvicts(t *testing.T) {
	f := newFixture(t, Config{})
	m := &wire.BlockCertify{
		Edge: "edge-1", BID: 0,
		Digest: wcrypto.Digest([]byte("claimed")),
		Body:   []byte("actual-different-content"),
	}
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("digest/body mismatch not convicted")
	}
}

// buildBlock makes a signed-entry block and certifies it.
func (f *fixture) buildCertifiedBlock(t *testing.T, bid uint64, keys ...string) wire.Block {
	t.Helper()
	blk := wire.Block{Edge: "edge-1", ID: bid, StartPos: bid * 2}
	for i, k := range keys {
		e := wire.Entry{Client: "c1", Seq: bid*100 + uint64(i), Key: []byte(k), Value: []byte("v-" + k)}
		e.Sig = wcrypto.SignMsg(f.keys["c1"], &e)
		blk.Entries = append(blk.Entries, e)
	}
	f.certify(t, bid, wcrypto.BlockDigest(&blk))
	return blk
}

func (f *fixture) merge(t *testing.T, m *wire.MergeRequest) *wire.MergeResponse {
	t.Helper()
	m.Edge = "edge-1"
	m.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], m)
	out := f.node.Receive(5, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	if len(out) != 1 {
		t.Fatalf("merge outputs = %d", len(out))
	}
	resp, ok := out[0].Msg.(*wire.MergeResponse)
	if !ok {
		t.Fatalf("merge output = %T", out[0].Msg)
	}
	return resp
}

// derivePages re-runs a merge the way the edge does: over the request it
// kept, with the page numbering, capacity and timestamp the response
// carries under the cloud's signature.
func derivePages(req *wire.MergeRequest, resp *wire.MergeResponse) []wire.Page {
	srcKVs := mlsm.PagesKVs(req.SrcPages)
	for i := range req.L0Blocks {
		srcKVs = append(srcKVs, mlsm.BlockKVs(&req.L0Blocks[i])...)
	}
	return mlsm.Merge(srcKVs, req.DstPages, req.FromLevel+1, int(resp.PageCap), resp.PageSeq, resp.Global.Ts)
}

func TestMergeL0ProducesSignedRoots(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	b1 := f.buildCertifiedBlock(t, 1, "c", "a")

	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0, b1}}
	resp := f.merge(t, req)
	if !resp.OK {
		t.Fatalf("merge rejected: %s", resp.Reason)
	}
	if resp.ConsumedTo != 1 {
		t.Fatalf("ConsumedTo = %d", resp.ConsumedTo)
	}
	// The response is data-free: roots and the merge's three scalars under
	// the cloud's signature, no pages.
	if len(resp.NewPages) != 0 {
		t.Fatalf("cloud shipped %d pages", len(resp.NewPages))
	}
	if resp.PageCap != 2 || resp.PageSeq != 0 || resp.Global.Ts != 5 {
		t.Fatalf("merge scalars = cap %d seq %d ts %d", resp.PageCap, resp.PageSeq, resp.Global.Ts)
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", resp, resp.CloudSig); err != nil {
		t.Fatalf("response signature: %v", err)
	}
	// The pages the edge derives obey the level invariants and hash to
	// the signed level root.
	pages := derivePages(req, resp)
	if err := mlsm.CheckLevel(pages); err != nil {
		t.Fatalf("merged pages invalid: %v", err)
	}
	if !bytes.Equal(mlsm.LevelTree(pages).Root(), resp.Roots[0]) {
		t.Fatal("derived pages do not hash to the signed level root")
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", &resp.Global, resp.Global.CloudSig); err != nil {
		t.Fatalf("global root signature: %v", err)
	}
	if !bytes.Equal(mlsm.GlobalRoot(resp.Roots), resp.Global.Root) {
		t.Fatal("roots do not fold to global")
	}
	// The signed global root is reproducible from the leaves the cloud
	// kept: Merkle trees rebuilt over every level's leaf hashes fold to it.
	kept := f.node.edges["edge-1"].levels
	rebuilt := make([][]byte, len(kept))
	for i, h := range kept {
		rebuilt[i] = merkle.New(h.Leaves).Root()
	}
	if !bytes.Equal(mlsm.GlobalRoot(rebuilt), resp.Global.Root) {
		t.Fatal("signed global root does not match the roots rebuilt from the kept leaves")
	}
	// Latest version of "a" must have won (position-based versions).
	for _, kv := range mlsm.PagesKVs(pages) {
		if string(kv.Key) == "a" && !bytes.Equal(kv.Value, []byte("v-a")) {
			t.Fatalf("unexpected value for a: %q", kv.Value)
		}
	}
}

func TestMergeRejectsUncertifiedBlock(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	blk := wire.Block{Edge: "edge-1", ID: 0}
	resp := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{blk}})
	if resp.OK {
		t.Fatal("uncertified block merged")
	}
}

func TestMergeConvictsTamperedBlock(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a")
	tampered := b0
	tampered.Entries = append([]wire.Entry(nil), b0.Entries...)
	tampered.Entries[0].Value = []byte("rewritten-history")
	resp := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{tampered}})
	if resp.OK {
		t.Fatal("tampered block merged")
	}
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("history rewrite not convicted")
	}
	// The request was signed over the tampered block's digest, which
	// commits the block id: the conviction is the add-lie it always was.
	vs := f.node.VerdictsFor("edge-1")
	if len(vs) != 1 || vs[0].Kind != wire.DisputeAddLie || vs[0].BID != 0 || !vs[0].Guilty {
		t.Fatalf("verdicts = %+v", vs)
	}
}

func TestMergeRejectsOutOfOrderBlocks(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	f.buildCertifiedBlock(t, 0, "a")
	b1 := f.buildCertifiedBlock(t, 1, "b")
	resp := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b1}})
	if resp.OK {
		t.Fatal("merge skipped block 0")
	}
}

// forgePage returns pages with one record of the first page rewritten.
func forgePage(pages []wire.Page) []wire.Page {
	forged := append([]wire.Page(nil), pages...)
	forged[0].KVs = append([]wire.KV(nil), forged[0].KVs...)
	forged[0].KVs[0].Value = []byte("forged")
	return forged
}

func TestMergeRejectsForgedLevelPages(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	resp := f.merge(t, req)
	if !resp.OK {
		t.Fatalf("setup merge rejected: %s", resp.Reason)
	}
	level1 := derivePages(req, resp)

	// A forged destination page: signed for (f.merge signs over what
	// ships), so the signature holds and the kept hashes refuse it.
	b1 := f.buildCertifiedBlock(t, 1, "c")
	resp2 := f.merge(t, &wire.MergeRequest{ReqID: 2, FromLevel: 0, L0Blocks: []wire.Block{b1}, DstPages: forgePage(level1)})
	if resp2.OK || !strings.Contains(resp2.Reason, "does not match recorded hash") {
		t.Fatalf("forged destination pages: ok=%v reason=%q", resp2.OK, resp2.Reason)
	}
	// The same for a forged source page of a level-to-level merge.
	resp3 := f.merge(t, &wire.MergeRequest{ReqID: 3, FromLevel: 1, SrcPages: forgePage(level1)})
	if resp3.OK || !strings.Contains(resp3.Reason, "does not match recorded hash") {
		t.Fatalf("forged source pages: ok=%v reason=%q", resp3.OK, resp3.Reason)
	}
	// Honest pages still merge: nothing above moved the cloud's state.
	resp4 := f.merge(t, &wire.MergeRequest{ReqID: 4, FromLevel: 1, SrcPages: level1})
	if !resp4.OK {
		t.Fatalf("honest level merge rejected: %s", resp4.Reason)
	}
}

// TestMergeRefusesCutPages: a page cut for a read folds to the leaf of the
// whole page, so its leaf, and the signature over it, cannot tell it apart
// — but merging it would drop the records it leaves out. The cloud checks
// shipped pages record by record and refuses a cut one, as a source or as
// a destination.
func TestMergeRefusesCutPages(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	level1 := derivePages(req, f.merge(t, req))

	idx := mlsm.NewIndex([]int{10, 10})
	roots := [][]byte{mlsm.LevelTree(level1).Root(), mlsm.LevelTree(nil).Root()}
	if err := idx.InstallLevel(1, level1, roots, wire.SignedRoot{}); err != nil {
		t.Fatal(err)
	}
	lp, err := idx.LevelProof(1, 0, []byte("0")) // below every key: one record ships
	if err != nil || lp.Page.Whole() || !bytes.Equal(lp.Page.Leaf(), mlsm.PageLeaf(&level1[0])) {
		t.Fatalf("setup: cut %+v err %v", lp.Page, err)
	}
	cut := append([]wire.Page(nil), level1...)
	cut[0] = lp.Page
	b1 := f.buildCertifiedBlock(t, 1, "c")
	for _, m := range []*wire.MergeRequest{
		{ReqID: 2, FromLevel: 0, L0Blocks: []wire.Block{b1}, DstPages: cut},
		{ReqID: 3, FromLevel: 1, SrcPages: cut},
	} {
		if resp := f.merge(t, m); resp.OK || !strings.Contains(resp.Reason, "page 0 does not match recorded hash") {
			t.Fatalf("cut page merged: ok=%v reason=%q", resp.OK, resp.Reason)
		}
	}
	if resp := f.merge(t, &wire.MergeRequest{ReqID: 4, FromLevel: 1, SrcPages: level1}); !resp.OK {
		t.Fatalf("whole pages rejected: %s", resp.Reason)
	}
}

// TestMergeSignatureBindsShippedData: the request is signed over digests
// and leaves, and the cloud checks the signature against the ones it
// recomputes from the shipped bytes — so a request signed over the honest
// commitments while shipping other data (a block or a page swapped after
// signing) fails the signature check itself.
func TestMergeSignatureBindsShippedData(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	level1 := derivePages(req, f.merge(t, req))
	b1 := f.buildCertifiedBlock(t, 1, "c")

	send := func(m *wire.MergeRequest) *wire.MergeResponse {
		t.Helper()
		out := f.node.Receive(5, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
		if len(out) != 1 {
			t.Fatalf("merge outputs = %d", len(out))
		}
		return out[0].Msg.(*wire.MergeResponse)
	}
	honest := &wire.MergeRequest{Edge: "edge-1", ReqID: 2, L0Blocks: []wire.Block{b1}, DstPages: level1}
	sig := wcrypto.SignMergeRequest(f.keys["edge-1"], honest,
		[][]byte{wcrypto.BlockDigest(&b1)}, nil, mlsm.LevelTree(level1).Leaves())

	swappedPage := *honest
	swappedPage.DstPages = forgePage(level1)
	swappedPage.EdgeSig = sig
	if resp := send(&swappedPage); resp.OK || resp.Reason != "bad edge signature" {
		t.Fatalf("page swapped under the signature: ok=%v reason=%q", resp.OK, resp.Reason)
	}
	tampered := b1
	tampered.Entries = append([]wire.Entry(nil), b1.Entries...)
	tampered.Entries[0].Value = []byte("rewritten")
	swappedBlock := *honest
	swappedBlock.L0Blocks = []wire.Block{tampered}
	swappedBlock.EdgeSig = sig
	if resp := send(&swappedBlock); resp.OK || resp.Reason != "bad edge signature" {
		t.Fatalf("block swapped under the signature: ok=%v reason=%q", resp.OK, resp.Reason)
	}
	if _, banned := f.node.Flagged("edge-1"); banned {
		t.Fatal("an unsigned-for block convicted the edge: anyone could have forged it")
	}
	// The signature over held commitments is the one the generic path
	// computes from the data: the honest request verifies and merges.
	honest.EdgeSig = sig
	if resp := send(honest); !resp.OK {
		t.Fatalf("honest request rejected: %s", resp.Reason)
	}
}

// TestMergeDuplicateRequestReplaysResponse: the edge re-sends a request
// whose answer is overdue. The cloud has moved past its inputs, so it must
// answer with the response it already signed — not reject it as out of
// order, and never merge twice.
func TestMergeDuplicateRequestReplaysResponse(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	first := f.merge(t, req)
	again := f.merge(t, req)
	if !again.OK || !bytes.Equal(again.CloudSig, first.CloudSig) {
		t.Fatalf("duplicate request: ok=%v reason=%q", again.OK, again.Reason)
	}
	if st := f.node.Stats(); st.Merges != 1 || st.MergeRejects != 0 {
		t.Fatalf("merges=%d rejects=%d after a duplicate, want 1/0", st.Merges, st.MergeRejects)
	}
	// Same number, other request (a promoted leader counts from its own
	// counter): not a duplicate, judged on its merits.
	b1 := f.buildCertifiedBlock(t, 1, "c")
	other := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b1}, DstPages: derivePages(req, first)})
	if !other.OK || other.ConsumedTo != 1 {
		t.Fatalf("distinct request with a reused id: ok=%v reason=%q", other.OK, other.Reason)
	}
	if st := f.node.Stats(); st.Merges != 2 {
		t.Fatalf("merges=%d, want 2", st.Merges)
	}
}

func TestGossipTickCoversCertifiedBlocks(t *testing.T) {
	f := newFixture(t, Config{GossipEvery: 100, GossipTo: []wire.NodeID{"c1"}})
	f.certify(t, 0, wcrypto.Digest([]byte("b0")))
	out := f.node.Tick(200)
	if len(out) != 1 {
		t.Fatalf("gossip outputs = %d", len(out))
	}
	g := out[0].Msg.(*wire.Gossip)
	if g.Blocks != 1 || g.Edge != "edge-1" {
		t.Fatalf("gossip = %+v", g)
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", g, g.CloudSig); err != nil {
		t.Fatalf("gossip signature: %v", err)
	}
	// Not again before the period elapses.
	if out := f.node.Tick(250); out != nil {
		t.Fatal("gossip emitted early")
	}
}

// TestConfigZeroMeansLayerDefault pins the zero rule: fill maps a zero
// GossipEvery to the layer default (1s) and leaves a negative one, which
// turns gossip off; Validate accepts the negative value.
func TestConfigZeroMeansLayerDefault(t *testing.T) {
	const def = int64(time.Second)
	if got := Defaults().GossipEvery; got != def {
		t.Fatalf("default GossipEvery = %v, want 1s", time.Duration(got))
	}
	on := newFixture(t, Config{GossipTo: []wire.NodeID{"c1"}})
	on.certify(t, 0, wcrypto.Digest([]byte("b0")))
	if out := on.node.Tick(def - 1); out != nil {
		t.Fatalf("gossip before the default period: %d messages", len(out))
	}
	if out := on.node.Tick(def); len(out) != 1 {
		t.Fatalf("zero GossipEvery: default-period tick sent %d messages, want 1 gossip", len(out))
	}

	off := Config{ID: "cloud", GossipEvery: -1, GossipTo: []wire.NodeID{"c1"}}
	if err := off.Validate(); err != nil {
		t.Fatalf("negative GossipEvery rejected: %v", err)
	}
	f := newFixture(t, off)
	f.certify(t, 0, wcrypto.Digest([]byte("b0")))
	if out := f.node.Tick(int64(time.Hour)); out != nil {
		t.Fatalf("negative GossipEvery still gossiped: %d messages", len(out))
	}
}

func TestDisputeVerdictAndProofAttachment(t *testing.T) {
	f := newFixture(t, Config{})
	blk := f.buildCertifiedBlock(t, 0, "a")

	// Honest evidence: not guilty, proof attached so the client can
	// finish Phase II.
	ev := &wire.PutResponse{BID: 0, Block: blk}
	ev.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], ev)
	d := core.BuildAddLieDispute(f.keys["c1"], "edge-1", ev)
	out := f.node.Receive(9, wire.Envelope{From: "c1", To: "cloud", Msg: d})
	if len(out) != 2 {
		t.Fatalf("dispute outputs = %d, want verdict+proof", len(out))
	}
	v := out[0].Msg.(*wire.Verdict)
	if v.Guilty {
		t.Fatalf("honest edge convicted: %+v", v)
	}
	if _, ok := out[1].Msg.(*wire.BlockProof); !ok {
		t.Fatalf("second output = %T, want BlockProof", out[1].Msg)
	}
}

func TestAddGossipTargetIdempotent(t *testing.T) {
	f := newFixture(t, Config{GossipEvery: 100})
	f.node.AddGossipTarget("c1")
	f.node.AddGossipTarget("c1")
	f.certify(t, 0, wcrypto.Digest([]byte("b")))
	out := f.node.Tick(200)
	if len(out) != 1 {
		t.Fatalf("duplicate gossip target: %d messages", len(out))
	}
}

// TestCertifyTwiceSignsOnce pins the proof-cache contract: the cloud
// spends exactly one Ed25519 signature per (edge, bid) proof. A duplicate
// certify and a dispute attachment both reuse the cached signed proof
// byte-for-byte instead of re-signing.
func TestCertifyTwiceSignsOnce(t *testing.T) {
	f := newFixture(t, Config{})
	d := wcrypto.Digest([]byte("block-0"))
	out1 := f.certify(t, 0, d)
	out2 := f.certify(t, 0, d)
	if got := f.node.Stats().ProofSigns; got != 1 {
		t.Fatalf("ProofSigns = %d, want 1 (duplicate certify must reuse the cached proof)", got)
	}
	p1 := out1[0].Msg.(*wire.BlockProof)
	p2 := out2[0].Msg.(*wire.BlockProof)
	if !bytes.Equal(p1.CloudSig, p2.CloudSig) {
		t.Fatal("duplicate certify produced a different signature")
	}
	if f.node.Stats().Certifies != 1 {
		t.Fatalf("Certifies = %d, want 1", f.node.Stats().Certifies)
	}
}

// TestMergeConvictsCachePoisonedBlock is the cloud leg of digest-signing
// adversarial parity: an edge ships a block whose frozen cache still holds
// the certified (honest) digest while its fields were tampered. The cloud
// recomputes the digest from the fields, so the poisoned cache proves
// nothing and the edge is convicted.
func TestMergeConvictsCachePoisonedBlock(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a")
	b0.Freeze() // cache now matches the certified digest
	poisoned := b0
	poisoned.Entries = append([]wire.Entry(nil), b0.Entries...)
	poisoned.Entries[0].Value = []byte("rewritten-history") // cache NOT invalidated
	if !bytes.Equal(wcrypto.BlockDigest(&poisoned), wcrypto.BlockDigest(&b0)) {
		t.Fatal("test setup: cache should still serve the honest digest")
	}
	resp := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{poisoned}})
	if resp.OK {
		t.Fatal("cache-poisoned block merged")
	}
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("cache poisoning not convicted")
	}
}

// TestTransferReachesGossipTargetsWithoutShardMap: clients rebind on the
// signed LeadershipTransfer, so a transfer sends it to the group and to
// every gossip target and sends no ShardMap; neither does re-admitting the
// demoted leader, which gets the transfer again beside its GroupJoin.
func TestTransferReachesGossipTargetsWithoutShardMap(t *testing.T) {
	f := newFixture(t, Config{LeaseTimeout: 100, GossipEvery: -1, GossipTo: []wire.NodeID{"c1", "c2"}})
	f.node.RegisterGroup("edge-1", "edge-1", []wire.NodeID{"edge-2"})
	f.node.Tick(1) // the lease starts at the first observation
	out := f.node.Tick(500)
	got := map[wire.NodeID]int{}
	for _, env := range out {
		tr, ok := env.Msg.(*wire.LeadershipTransfer)
		if !ok {
			t.Fatalf("transfer tick sent %T to %s", env.Msg, env.To)
		}
		if tr.NewLeader != "edge-2" {
			t.Fatalf("transfer promotes %s, want edge-2", tr.NewLeader)
		}
		if err := wcrypto.VerifyMsg(f.reg, "cloud", tr, tr.CloudSig); err != nil {
			t.Fatalf("transfer signature: %v", err)
		}
		got[env.To]++
	}
	for _, to := range []wire.NodeID{"edge-2", "edge-1", "c1", "c2"} {
		if got[to] != 1 {
			t.Fatalf("transfers per recipient = %v, want one each to edge-2, edge-1, c1, c2", got)
		}
	}

	hb := &wire.ReplicaHeartbeat{Chain: "edge-1", Node: "edge-1"}
	out = f.node.Receive(600, wire.Envelope{From: "edge-1", To: "cloud", Msg: hb, Verified: true})
	got = map[wire.NodeID]int{}
	for _, env := range out {
		switch m := env.Msg.(type) {
		case *wire.GroupJoin:
			got[env.To]++
		case *wire.LeadershipTransfer:
			if env.To != "edge-1" || m.Epoch != 1 {
				t.Fatalf("rejoin sent epoch-%d transfer to %s", m.Epoch, env.To)
			}
		default:
			t.Fatalf("rejoin sent %T to %s", env.Msg, env.To)
		}
	}
	if len(out) != 3 || got["edge-1"] != 1 || got["edge-2"] != 1 {
		t.Fatalf("rejoin outputs = %d, GroupJoins %v; want a GroupJoin to the node and to the leader plus the transfer", len(out), got)
	}
}
