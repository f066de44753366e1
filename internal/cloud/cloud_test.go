package cloud

import (
	"bytes"
	"io"
	"log/slog"
	"runtime"
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

func newFixture(t testing.TB, cfg Config) *fixture {
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

// mac returns the MAC edge puts on certify m, under the key it shares with
// the cloud.
func (f *fixture) mac(t testing.TB, edge wire.NodeID, m *wire.BlockCertify) []byte {
	t.Helper()
	mac, err := wcrypto.MAC(f.reg, f.keys[edge], edge, "cloud", m)
	if err != nil {
		t.Fatal(err)
	}
	return mac
}

func (f *fixture) certify(t testing.TB, bid uint64, digest []byte) []wire.Envelope {
	t.Helper()
	m := &wire.BlockCertify{Edge: "edge-1", BID: bid, Digest: digest}
	m.MAC = f.mac(t, "edge-1", m)
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
	mac, err := wcrypto.MAC(f.reg, f.keys["c1"], "c1", "cloud", m) // another pair's key
	if err != nil {
		t.Fatal(err)
	}
	m.MAC = mac
	out := f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	if out != nil {
		t.Fatal("forged certify accepted")
	}
}

func TestCertifySpoofedFromIgnored(t *testing.T) {
	f := newFixture(t, Config{})
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: wcrypto.Digest([]byte("x"))}
	m.MAC = f.mac(t, "edge-1", m)
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
	m.MAC = f.mac(t, "edge-1", m)
	f.node.Receive(1, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
	if _, banned := f.node.Flagged("edge-1"); !banned {
		t.Fatal("digest/body mismatch not convicted")
	}
}

// buildBlock makes a signed-entry block and certifies it.
func (f *fixture) buildCertifiedBlock(t testing.TB, bid uint64, keys ...string) wire.Block {
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

func (f *fixture) merge(t testing.TB, m *wire.MergeRequest) *wire.MergeResponse {
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

// derivePages re-runs a merge the way the edge does: over the blocks it
// shipped, or its own source level src, and its own destination level
// dst, with the page numbering, capacity and timestamp the response
// carries under the cloud's signature.
func derivePages(req *wire.MergeRequest, src, dst []wire.Page, resp *wire.MergeResponse) []wire.Page {
	srcKVs := mlsm.PagesKVs(src)
	for i := range req.L0Blocks {
		srcKVs = append(srcKVs, mlsm.BlockKVs(&req.L0Blocks[i])...)
	}
	return mlsm.Merge(srcKVs, dst, req.FromLevel+1, int(resp.PageCap), resp.PageSeq, resp.Global.Ts)
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
	pages := derivePages(req, nil, nil, resp)
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

// TestMergeRejectsForgedLevelPages: level content is the cloud's own. A
// request that ships level pages is refused whatever they hold, forged or
// honest, as a source or as a destination, and so is a level merge that
// ships blocks; the levels the cloud then merges are the ones it kept.
func TestMergeRejectsForgedLevelPages(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	resp := f.merge(t, req)
	if !resp.OK {
		t.Fatalf("setup merge rejected: %s", resp.Reason)
	}
	level1 := derivePages(req, nil, nil, resp)

	b1 := f.buildCertifiedBlock(t, 1, "c")
	for name, m := range map[string]*wire.MergeRequest{
		"forged destination": {ReqID: 2, FromLevel: 0, L0Blocks: []wire.Block{b1}, DstPages: forgePage(level1)},
		"forged source":      {ReqID: 3, FromLevel: 1, SrcPages: forgePage(level1)},
		"honest source":      {ReqID: 4, FromLevel: 1, SrcPages: level1},
		"level merge blocks": {ReqID: 4, FromLevel: 1, L0Blocks: []wire.Block{b1}},
	} {
		if resp := f.merge(t, m); resp.OK || resp.Reason != "merge request carries level content" {
			t.Fatalf("%s: ok=%v reason=%q", name, resp.OK, resp.Reason)
		}
	}
	assertKeptLevels(t, f, level1, b1)
}

// assertKeptLevels checks that the cloud still holds level 1 as level1:
// an L0 merge of b1 and then a level merge both derive from it, and their
// roots are those of the pages the edge derives from its own levels.
func assertKeptLevels(t *testing.T, f *fixture, level1 []wire.Page, b1 wire.Block) {
	t.Helper()
	l0 := &wire.MergeRequest{ReqID: 5, FromLevel: 0, L0Blocks: []wire.Block{b1}}
	resp := f.merge(t, l0)
	if !resp.OK {
		t.Fatalf("L0 merge rejected: %s", resp.Reason)
	}
	level1 = derivePages(l0, nil, level1, resp)
	if !bytes.Equal(mlsm.LevelTree(level1).Root(), resp.Roots[0]) {
		t.Fatal("L0 merge did not derive from the kept level 1")
	}
	down := &wire.MergeRequest{ReqID: 6, FromLevel: 1}
	if resp = f.merge(t, down); !resp.OK {
		t.Fatalf("level merge rejected: %s", resp.Reason)
	}
	level2 := derivePages(down, level1, nil, resp)
	if !bytes.Equal(mlsm.LevelTree(nil).Root(), resp.Roots[0]) || !bytes.Equal(mlsm.LevelTree(level2).Root(), resp.Roots[1]) {
		t.Fatal("level merge did not derive from the kept levels")
	}
}

// TestMergeRefusesCutPages: a page cut for a read folds to the leaf of the
// whole page, but merging it would drop the records it leaves out. The
// cloud takes no page from a request, so a cut page is refused like any
// other, as a source or as a destination, and the levels it merges stay
// whole.
func TestMergeRefusesCutPages(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	req := &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}}
	level1 := derivePages(req, nil, nil, f.merge(t, req))

	idx := mlsm.NewIndex([]int{10, 10})
	roots := [][]byte{mlsm.LevelTree(level1).Root(), mlsm.LevelTree(nil).Root()}
	if err := idx.InstallLevel(1, level1, roots, wire.SignedRoot{}); err != nil {
		t.Fatal(err)
	}
	start, end := wire.PointRange([]byte("0")) // below every key: one record ships
	lp, err := idx.LevelRangeProof(1, 0, 1, start, end)
	if err != nil || lp.Pages[0].Whole() || !bytes.Equal(lp.Pages[0].Leaf(), mlsm.PageLeaf(&level1[0])) {
		t.Fatalf("setup: cut %+v err %v", lp, err)
	}
	cut := append([]wire.Page(nil), level1...)
	cut[0] = lp.Pages[0]
	b1 := f.buildCertifiedBlock(t, 1, "c")
	for _, m := range []*wire.MergeRequest{
		{ReqID: 2, FromLevel: 0, L0Blocks: []wire.Block{b1}, DstPages: cut},
		{ReqID: 3, FromLevel: 1, SrcPages: cut},
	} {
		if resp := f.merge(t, m); resp.OK || resp.Reason != "merge request carries level content" {
			t.Fatalf("cut page merged: ok=%v reason=%q", resp.OK, resp.Reason)
		}
	}
	assertKeptLevels(t, f, level1, b1)
}

// TestMergeSignatureBindsShippedData: the request is signed over its header
// and block digests, and the cloud checks the signature against the
// digests it recomputes from the shipped bytes — so a request signed over
// the honest digests while shipping another block, or naming another
// level, fails the signature check itself.
func TestMergeSignatureBindsShippedData(t *testing.T) {
	f := newFixture(t, Config{Levels: 2, PageCap: 2})
	b0 := f.buildCertifiedBlock(t, 0, "a", "b")
	f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b0}})
	b1 := f.buildCertifiedBlock(t, 1, "c")

	send := func(m *wire.MergeRequest) *wire.MergeResponse {
		t.Helper()
		out := f.node.Receive(5, wire.Envelope{From: "edge-1", To: "cloud", Msg: m})
		if len(out) != 1 {
			t.Fatalf("merge outputs = %d", len(out))
		}
		return out[0].Msg.(*wire.MergeResponse)
	}
	honest := &wire.MergeRequest{Edge: "edge-1", ReqID: 2, L0Blocks: []wire.Block{b1}}
	sig := wcrypto.SignMergeRequest(f.keys["edge-1"], honest, [][]byte{wcrypto.BlockDigest(&b1)})

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
	level := &wire.MergeRequest{Edge: "edge-1", ReqID: 3, FromLevel: 1}
	level.EdgeSig = wcrypto.SignMergeRequest(f.keys["edge-1"], level, nil)
	renamed := *level
	renamed.FromLevel = 0
	if resp := send(&renamed); resp.OK || resp.Reason != "bad edge signature" {
		t.Fatalf("level renamed under the signature: ok=%v reason=%q", resp.OK, resp.Reason)
	}
	// The signature over held digests is the one the generic path computes
	// from the data: the honest request verifies and merges.
	honest.EdgeSig = sig
	if resp := send(honest); !resp.OK {
		t.Fatalf("honest request rejected: %s", resp.Reason)
	}
}

// TestKeptLevelOutlivesRequestFrame: the cloud keeps the keys of a merged
// level, and the decoded blocks they came from alias the frame the request
// arrived in. Overwriting that frame after the merge must not change the
// roots of the merges that follow.
func TestKeptLevelOutlivesRequestFrame(t *testing.T) {
	roots := func(overwrite bool) [][]byte {
		f := newFixture(t, Config{Levels: 2, PageCap: 2})
		b0 := f.buildCertifiedBlock(t, 0, "a", "b", "c")
		req := &wire.MergeRequest{Edge: "edge-1", ReqID: 1, L0Blocks: []wire.Block{b0}}
		req.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], req)
		frame := wire.EncodeEnvelope(wire.Envelope{From: "edge-1", To: "cloud", Msg: req})
		env, err := wire.DecodeEnvelopeOwned(frame)
		if err != nil {
			t.Fatal(err)
		}
		if out := f.node.Receive(5, env); len(out) != 1 || !out[0].Msg.(*wire.MergeResponse).OK {
			t.Fatalf("merge from a frame: %v", out)
		}
		if overwrite {
			for i := range frame {
				frame[i] = 'z'
			}
		}
		b1 := f.buildCertifiedBlock(t, 1, "b", "d")
		l0 := f.merge(t, &wire.MergeRequest{ReqID: 2, L0Blocks: []wire.Block{b1}})
		down := f.merge(t, &wire.MergeRequest{ReqID: 3, FromLevel: 1})
		if !l0.OK || !down.OK {
			t.Fatalf("merges after the frame: %q %q", l0.Reason, down.Reason)
		}
		return append(l0.Roots, down.Roots...)
	}
	want, got := roots(false), roots(true)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("root %d moved when the request frame was overwritten", i)
		}
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
	other := f.merge(t, &wire.MergeRequest{ReqID: 1, FromLevel: 0, L0Blocks: []wire.Block{b1}})
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

// heartbeat delivers node's signed heartbeat at now, reporting blocks
// held and the view (epoch, leader) it holds.
func (f *fixture) heartbeat(t *testing.T, now int64, node wire.NodeID, epoch uint64, leader wire.NodeID, blocks uint64) []wire.Envelope {
	t.Helper()
	k, ok := f.keys[node]
	if !ok {
		k = wcrypto.DeterministicKey(node)
		f.keys[node] = k
		f.reg.Register(node, k.Pub)
	}
	hb := &wire.ReplicaHeartbeat{Chain: "edge-1", Node: node, Blocks: blocks, Epoch: epoch, Leader: leader, Ts: now}
	hb.Sig = wcrypto.SignMsg(k, hb)
	return f.node.Receive(now, wire.Envelope{From: node, To: "cloud", Msg: hb})
}

// TestTransferReachesGossipTargetsWithoutShardMap: clients rebind on the
// signed LeadershipTransfer, so a transfer sends it to the group and to
// every gossip target and sends no ShardMap. Re-admitting the demoted
// leader is a view of its own: the next epoch under the same leader,
// listing it as a follower, sent to the group alone.
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

	out = f.heartbeat(t, 600, "edge-1", 1, "edge-2", 0)
	got = map[wire.NodeID]int{}
	for _, env := range out {
		v, ok := env.Msg.(*wire.LeadershipTransfer)
		if !ok || v.Epoch != 2 || v.Prev != "edge-2" || v.NewLeader != "edge-2" ||
			len(v.Followers) != 1 || v.Followers[0] != "edge-1" {
			t.Fatalf("rejoin sent %+v to %s, want the epoch-2 view of edge-2 leading edge-1", env.Msg, env.To)
		}
		got[env.To]++
	}
	if len(out) != 2 || got["edge-1"] != 1 || got["edge-2"] != 1 {
		t.Fatalf("rejoin views per recipient = %v, want one to the member and one to the leader", got)
	}
	if st := f.node.Stats(); st.Transfers != 1 || st.Rejoins != 1 {
		t.Fatalf("transfers %d, rejoins %d; want 1 and 1", st.Transfers, st.Rejoins)
	}
}

// TestLeaseRenewedOnlyByLeadingHeartbeat: the named leader's heartbeats
// renew its lease only while they report it leading at the current
// epoch. A leader that restarted blank reports no leader: it is sent
// nothing — the current view would name it — and its lease runs out.
func TestLeaseRenewedOnlyByLeadingHeartbeat(t *testing.T) {
	f := newFixture(t, Config{LeaseTimeout: 100, GossipEvery: -1})
	f.node.RegisterGroup("edge-1", "edge-1", []wire.NodeID{"edge-2"})
	f.node.Tick(1)
	for now := int64(50); now <= 300; now += 50 {
		if out := f.heartbeat(t, now, "edge-1", 0, "edge-1", 0); len(out) != 0 {
			t.Fatalf("a current leader's heartbeat was answered with %v", out)
		}
		if out := f.node.Tick(now + 1); len(out) != 0 {
			t.Fatalf("transfer at %d under a renewed lease", now+1)
		}
	}
	for now := int64(350); now <= 400; now += 50 {
		if out := f.heartbeat(t, now, "edge-1", 0, "", 0); len(out) != 0 {
			t.Fatalf("a blank restarted leader was answered with %v", out)
		}
		f.node.Tick(now + 1)
	}
	if f.node.ChainLeader("edge-1") != "edge-2" || f.node.Stats().Transfers != 1 {
		t.Fatalf("leader %q after %d transfers, want edge-2 after 1: blank heartbeats renewed the lease",
			f.node.ChainLeader("edge-1"), f.node.Stats().Transfers)
	}
}

// TestHeartbeatAnsweredWithCurrentView: a named leader that missed the
// view promoting it is re-sent that view, at most once per LeaseTimeout,
// and its lease runs only from a heartbeat that leads at that epoch. An
// in-group follower whose mirror trails the certified frontier is sent
// the signed frontier.
func TestHeartbeatAnsweredWithCurrentView(t *testing.T) {
	f := newFixture(t, Config{LeaseTimeout: 100, GossipEvery: -1})
	f.node.RegisterGroup("edge-1", "edge-1", []wire.NodeID{"edge-2", "edge-3"})
	f.node.Tick(1)
	f.heartbeat(t, 10, "edge-2", 0, "edge-1", 1)
	f.node.Tick(200) // edge-1's lease expires: edge-2 (the longer log) leads epoch 1
	if f.node.ChainLeader("edge-1") != "edge-2" {
		t.Fatalf("leader = %q, want edge-2", f.node.ChainLeader("edge-1"))
	}
	resent := func(now int64) bool {
		out := f.heartbeat(t, now, "edge-2", 0, "edge-1", 1)
		if len(out) == 0 {
			return false
		}
		v, ok := out[0].Msg.(*wire.LeadershipTransfer)
		if len(out) != 1 || !ok || out[0].To != "edge-2" || v.Epoch != 1 || v.NewLeader != "edge-2" {
			t.Fatalf("heartbeat at %d answered with %v, want the epoch-1 view to edge-2", now, out)
		}
		return true
	}
	if !resent(250) || resent(300) || !resent(350) {
		t.Fatal("the missed view was not re-sent once per lease")
	}
	if f.heartbeat(t, 352, "edge-2", 1, "edge-2", 1); len(f.node.Tick(400)) != 0 || f.node.ChainLeader("edge-1") != "edge-2" {
		t.Fatalf("a leading heartbeat at the current epoch did not renew the lease: leader %q", f.node.ChainLeader("edge-1"))
	}

	d := wcrypto.Digest([]byte("block-0"))
	m := &wire.BlockCertify{Edge: "edge-1", BID: 0, Digest: d}
	m.MAC = f.mac(t, "edge-2", m)
	f.node.Receive(410, wire.Envelope{From: "edge-2", To: "cloud", Msg: m})
	out := f.heartbeat(t, 420, "edge-3", 1, "edge-2", 0)
	g, ok := out[0].Msg.(*wire.Gossip)
	if len(out) != 1 || !ok || out[0].To != "edge-3" || g.Blocks != 1 {
		t.Fatalf("a follower behind the frontier was answered with %v, want the signed frontier of 1 block", out)
	}
	if err := wcrypto.VerifyMsg(f.reg, "cloud", g, g.CloudSig); err != nil {
		t.Fatal(err)
	}
}
