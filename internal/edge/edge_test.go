package edge

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wedgechain/internal/scan"
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
	for _, id := range []wire.NodeID{"edge-1", "cloud", "c1", "c2"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	cfg.ID = "edge-1"
	cfg.Cloud = "cloud"
	return &fixture{node: New(cfg, keys["edge-1"], reg), keys: keys, reg: reg}
}

// put is the one write message a test sends edge-1: the entries in a
// PutBatch that their client k MACs once and sends.
func put(k wcrypto.KeyPair, entries ...wire.Entry) wire.Envelope {
	return wire.Envelope{From: k.ID, To: "edge-1", Msg: mac(k, &wire.PutBatch{Client: k.ID, Entries: entries})}
}

// clientView is what a test client knows of edge-1: its public key, from
// which wcrypto.MAC derives the key the client shares with it.
var clientView = func() *wcrypto.Registry {
	reg := wcrypto.NewRegistry()
	reg.Register("edge-1", wcrypto.DeterministicKey("edge-1").Pub)
	return reg
}()

// mac MACs b as k sends it to edge-1; every test batch is MACed here.
func mac(k wcrypto.KeyPair, b *wire.PutBatch) *wire.PutBatch {
	var err error
	if b.MAC, err = wcrypto.MAC(clientView, k, k.ID, "edge-1", b); err != nil {
		panic(err)
	}
	return b
}

// entry is client's write seq; a key of "" makes it a log add.
func (f *fixture) entry(client wire.NodeID, seq uint64, key, value string) wire.Entry {
	e := wire.Entry{Client: client, Seq: seq, Value: []byte(value)}
	if key != "" {
		e.Key = []byte(key)
	}
	return e
}

// put sends client's entries as one batch.
func (f *fixture) put(now int64, client wire.NodeID, entries ...wire.Entry) []wire.Envelope {
	return f.node.Receive(now, put(f.keys[client], entries...))
}

func (f *fixture) add(t *testing.T, now int64, client wire.NodeID, seq uint64, value string) []wire.Envelope {
	t.Helper()
	return f.put(now, client, f.entry(client, seq, "", value))
}

func kindsOf(envs []wire.Envelope) map[wire.Kind]int {
	out := map[wire.Kind]int{}
	for _, e := range envs {
		out[e.Msg.MsgKind()]++
	}
	return out
}

func TestWriteBuffersUntilBatch(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 3})
	if out := f.add(t, 1, "c1", 1, "a"); out != nil {
		t.Fatalf("first write produced output: %v", kindsOf(out))
	}
	if out := f.add(t, 2, "c1", 2, "b"); out != nil {
		t.Fatalf("second write produced output: %v", kindsOf(out))
	}
	out := f.add(t, 3, "c2", 1, "c")
	k := kindsOf(out)
	if k[wire.KindPutResponse] != 2 {
		t.Fatalf("want 2 responses (one per client), got %v", k)
	}
	if k[wire.KindBlockCertify] != 1 {
		t.Fatalf("want 1 certify, got %v", k)
	}
}

func TestWriteRejectsBadSignature(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	env := put(f.keys["c1"], f.entry("c1", 1, "", "data"))
	env.Msg.(*wire.PutBatch).MAC[0] ^= 1
	out := f.node.Receive(1, env)
	if out != nil {
		t.Fatal("forged entry accepted")
	}
	if f.node.Log().BufferLen() != 0 {
		t.Fatal("forged entry buffered")
	}
}

func TestWriteRejectsSpoofedSender(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	env := put(f.keys["c1"], f.entry("c1", 1, "", "data"))
	env.From = "c2"
	out := f.node.Receive(1, env)
	if out != nil || f.node.Log().BufferLen() != 0 {
		t.Fatal("spoofed sender accepted")
	}
}

func TestCertifyIsDataFree(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	out := f.add(t, 1, "c1", 1, "payload-of-some-size-xxxxxxxxxxxxxxxxxxxxxx")
	var certify *wire.BlockCertify
	var resp *wire.PutResponse
	for _, env := range out {
		switch m := env.Msg.(type) {
		case *wire.BlockCertify:
			certify = m
		case *wire.PutResponse:
			resp = m
		}
	}
	if certify == nil || resp == nil {
		t.Fatalf("missing outputs: %v", kindsOf(out))
	}
	if len(certify.Body) != 0 {
		t.Fatal("data-free certify carried a body")
	}
	if !bytes.Equal(certify.Digest, wcrypto.BlockDigest(&resp.Block)) {
		t.Fatal("certify digest does not match the response block")
	}
	if err := wcrypto.VerifyMsg(f.reg, "edge-1", certify, certify.EdgeSig); err != nil {
		t.Fatalf("certify signature: %v", err)
	}
}

func TestFullDataCertCarriesBody(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1, FullDataCert: true})
	out := f.add(t, 1, "c1", 1, "data")
	for _, env := range out {
		if m, ok := env.Msg.(*wire.BlockCertify); ok {
			if len(m.Body) == 0 {
				t.Fatal("full-data certify has no body")
			}
			var blk wire.Block
			d := wire.NewDecoder(m.Body)
			blk.DecodeFrom(d)
			if err := d.Finish(); err != nil {
				t.Fatalf("body does not decode: %v", err)
			}
			if !bytes.Equal(wcrypto.RecomputedBlockDigest(&blk), m.Digest) {
				t.Fatal("body does not recompute to digest")
			}
			return
		}
	}
	t.Fatal("no certify emitted")
}

func (f *fixture) certifyBlock(t testing.TB, bid uint64) *wire.BlockProof {
	t.Helper()
	digest, err := f.node.Log().Digest(bid)
	if err != nil {
		t.Fatal(err)
	}
	p := &wire.BlockProof{Edge: "edge-1", BID: bid, Digest: digest}
	p.CloudSig = wcrypto.SignMsg(f.keys["cloud"], p)
	return p
}

func TestProofForwardedToBlockClients(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 2, L0Threshold: 100})
	f.add(t, 1, "c1", 1, "a")
	f.add(t, 2, "c2", 1, "b")
	out := f.node.Receive(3, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 0)})
	k := kindsOf(out)
	if k[wire.KindBlockProof] != 2 {
		t.Fatalf("proof forwarded to %d clients, want 2 (%v)", k[wire.KindBlockProof], k)
	}
	if _, ok := f.node.Log().Cert(0); !ok {
		t.Fatal("cert not installed")
	}
}

func TestProofFromNonCloudIgnored(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	f.add(t, 1, "c1", 1, "a")
	p := f.certifyBlock(t, 0)
	out := f.node.Receive(2, wire.Envelope{From: "c2", To: "edge-1", Msg: p})
	if out != nil {
		t.Fatal("proof from non-cloud processed")
	}
}

func TestReadThreeCases(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	f.add(t, 1, "c1", 1, "a")

	// Case: Phase I read (no proof yet).
	out := f.node.Receive(2, wire.Envelope{From: "c2", To: "edge-1", Msg: &wire.ReadRequest{BID: 0, ReqID: 1}})
	resp := out[0].Msg.(*wire.ReadResponse)
	if !resp.OK || resp.HasProof {
		t.Fatalf("phase-I read = %+v", resp)
	}

	// Certify; the waiting reader receives the forwarded proof.
	out = f.node.Receive(3, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 0)})
	forwarded := 0
	for _, env := range out {
		if env.Msg.MsgKind() == wire.KindBlockProof && env.To == "c2" {
			forwarded++
		}
	}
	if forwarded != 1 {
		t.Fatalf("proof not forwarded to phase-I reader (outputs %v)", kindsOf(out))
	}

	// Case: Phase II read.
	out = f.node.Receive(4, wire.Envelope{From: "c2", To: "edge-1", Msg: &wire.ReadRequest{BID: 0, ReqID: 2}})
	resp = out[0].Msg.(*wire.ReadResponse)
	if !resp.OK || !resp.HasProof {
		t.Fatalf("phase-II read = %+v", resp)
	}

	// Case: not available (signed denial).
	out = f.node.Receive(5, wire.Envelope{From: "c2", To: "edge-1", Msg: &wire.ReadRequest{BID: 99, ReqID: 3}})
	resp = out[0].Msg.(*wire.ReadResponse)
	if resp.OK {
		t.Fatal("missing block served")
	}
	if err := wcrypto.VerifyMsg(f.reg, "edge-1", resp, resp.EdgeSig); err != nil {
		t.Fatalf("denial not signed: %v", err)
	}
}

// A client picks its own seqs, so one far beyond the rest must cost the
// edge what any put costs — not a seen table stretched to reach it — and
// still be deduplicated: its resend is re-acknowledged from its block.
func TestFarSeqPutHandledInBoundedMemory(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	for seq := uint64(1); seq <= 8; seq++ {
		f.add(t, int64(seq), "c1", seq, "v")
	}
	far := put(f.keys["c1"], f.entry("c1", 1<<62, "", "far"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := f.node.Receive(10, far)
	runtime.ReadMemStats(&after)
	if kindsOf(out)[wire.KindPutResponse] != 1 {
		t.Fatalf("far-seq put not acknowledged: %v", kindsOf(out))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("handling one far-seq put allocated %d bytes", grew)
	}
	out = f.node.Receive(11, far)
	if len(out) == 0 {
		t.Fatal("far-seq resend not re-acknowledged")
	}
	if ack, ok := out[0].Msg.(*wire.PutResponse); !ok || ack.BID != 8 {
		t.Fatalf("far-seq resend answered with %v, want the ack of block 8", kindsOf(out))
	}
}

func TestL0MergeStartsAfterThreshold(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1, L0Threshold: 2, LevelThresholds: []int{2, 4}})
	f.add(t, 1, "c1", 1, "a")
	out := f.node.Receive(2, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 0)})
	if kindsOf(out)[wire.KindMergeRequest] != 0 {
		t.Fatal("merge started below threshold")
	}
	f.add(t, 3, "c1", 2, "b")
	out = f.node.Receive(4, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 1)})
	var merge *wire.MergeRequest
	for _, env := range out {
		if m, ok := env.Msg.(*wire.MergeRequest); ok {
			merge = m
		}
	}
	if merge == nil {
		t.Fatalf("no merge at threshold: %v", kindsOf(out))
	}
	if merge.FromLevel != 0 || len(merge.L0Blocks) != 2 {
		t.Fatalf("merge = from %d with %d blocks", merge.FromLevel, len(merge.L0Blocks))
	}
	// No second merge while one is in flight: block 2 was cut after the
	// request left, so its proof re-sends that request, and nothing else.
	f.add(t, 5, "c1", 3, "c")
	out = f.node.Receive(6, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 2)})
	for _, env := range out {
		if m, ok := env.Msg.(*wire.MergeRequest); ok && m != merge {
			t.Fatal("second merge while busy")
		}
	}
}

func TestTamperBlockKeepsVictimEntry(t *testing.T) {
	blk := wire.Block{
		Edge: "edge-1", ID: 0,
		Entries: []wire.Entry{
			{Client: "victim", Seq: 1, Value: []byte("mine")},
			{Client: "other", Seq: 1, Value: []byte("theirs")},
		},
	}
	out := tamperBlock(blk, "victim")
	if !bytes.Equal(out.Entries[0].Value, []byte("mine")) {
		t.Fatal("victim entry altered — the lie would be detected immediately")
	}
	if bytes.Equal(out.Entries[1].Value, []byte("theirs")) {
		t.Fatal("nothing altered — not a lie")
	}
	if bytes.Equal(wcrypto.BlockDigest(&blk), wcrypto.BlockDigest(&out)) {
		t.Fatal("digest unchanged")
	}
	// Original must be untouched.
	if !bytes.Equal(blk.Entries[1].Value, []byte("theirs")) {
		t.Fatal("tamperBlock mutated the input")
	}
}

func TestTamperBlockAllVictimEntriesAppends(t *testing.T) {
	blk := wire.Block{
		Edge: "edge-1", ID: 0,
		Entries: []wire.Entry{{Client: "victim", Seq: 1, Value: []byte("mine")}},
	}
	out := tamperBlock(blk, "victim")
	if len(out.Entries) != 2 {
		t.Fatalf("entries = %d, want forged appendix", len(out.Entries))
	}
}

func TestReserveGrantsPositions(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 4})
	req := &wire.ReserveRequest{Client: "c1", Count: 2, ReqID: 7}
	req.ClientSig = wcrypto.SignMsg(f.keys["c1"], req)
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: req})
	resp := out[0].Msg.(*wire.ReserveResponse)
	if resp.Start != 0 || resp.Count != 2 || resp.ReqID != 7 {
		t.Fatalf("grant = %+v", resp)
	}
	if err := wcrypto.VerifyMsg(f.reg, "edge-1", resp, resp.EdgeSig); err != nil {
		t.Fatalf("grant unsigned: %v", err)
	}
}

// TestReserveRefusesOversizedCount: a reservation is one log slot per
// position, allocated at once and held until filled or expired, so a count
// past wire.MaxReserve is refused like any malformed request — no answer,
// no slot — and the bound itself is granted.
func TestReserveRefusesOversizedCount(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 4})
	reserve := func(count uint32) []wire.Envelope {
		req := &wire.ReserveRequest{Client: "c1", Count: count, ReqID: 7}
		req.ClientSig = wcrypto.SignMsg(f.keys["c1"], req)
		return f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: req})
	}
	for _, count := range []uint32{wire.MaxReserve + 1, 1 << 20} {
		if out := reserve(count); out != nil || f.node.Log().BufferLen() != 0 {
			t.Fatalf("Count %d: %d outputs, %d slots buffered", count, len(out), f.node.Log().BufferLen())
		}
	}
	if out := reserve(wire.MaxReserve); len(out) != 1 || f.node.Log().BufferLen() != wire.MaxReserve {
		t.Fatalf("Count %d: %d outputs, %d slots buffered", wire.MaxReserve, len(out), f.node.Log().BufferLen())
	}
}

// TestMixedBlockOneAckOneProofPerClient: a put and a log add are one
// write. A block holding keyed and keyless entries — all from one client,
// or from two — answers each client with one PutResponse and forwards each
// one BlockProof, also to a client that read the block besides writing it;
// the keyless entries are in the log and in no get or scan.
func TestMixedBlockOneAckOneProofPerClient(t *testing.T) {
	perClient := func(envs []wire.Envelope, kind wire.Kind) map[wire.NodeID]int {
		n := map[wire.NodeID]int{}
		for _, e := range envs {
			if e.Msg.MsgKind() == kind {
				n[e.To]++
			}
		}
		return n
	}
	for _, writers := range [][]wire.NodeID{{"c1", "c1", "c1", "c1"}, {"c1", "c1", "c2", "c2"}} {
		f := newFixture(t, Config{BatchSize: 4, L0Threshold: 100})
		var out []wire.Envelope
		for i, c := range writers {
			key := "" // odd positions are log adds
			if i%2 == 0 {
				key = fmt.Sprintf("k%d", i)
			}
			out = f.put(int64(i+1), c, f.entry(c, uint64(i+1), key, fmt.Sprintf("v%d", i)))
		}
		want := map[wire.NodeID]int{}
		for _, c := range writers {
			want[c] = 1
		}
		if got := perClient(out, wire.KindPutResponse); fmt.Sprint(got) != fmt.Sprint(want) || len(out) != len(want)+1 {
			t.Fatalf("writers %v: acks %v among %v, want %v and one certify", writers, got, kindsOf(out), want)
		}

		// c1 reads the uncertified block it wrote: a get hit, and a scan of
		// everything that finds the keyed entries only.
		start, end := wire.PointRange([]byte("k0"))
		get := f.node.Receive(5, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ScanRequest{Start: start, End: end, Limit: 1, ReqID: 1}})
		if res, err := scan.Verify(scan.Params{Reg: f.reg, Edge: "edge-1", Cloud: "cloud"}, get[0].Msg.(*wire.ScanResponse)); err != nil || len(res.KVs) != 1 || string(res.KVs[0].Value) != "v0" {
			t.Fatalf("writers %v: get k0 = %v, %v", writers, res.KVs, err)
		}
		sc := f.node.Receive(6, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ScanRequest{ReqID: 2}})
		res, err := scan.Verify(scan.Params{Reg: f.reg, Edge: "edge-1", Cloud: "cloud"}, sc[0].Msg.(*wire.ScanResponse))
		if err != nil || len(res.KVs) != 2 || string(res.KVs[0].Key) != "k0" || string(res.KVs[1].Key) != "k2" {
			t.Fatalf("writers %v: scan = %v, %v; want k0 and k2", writers, res.KVs, err)
		}
		if blk, _ := f.node.Log().Block(0); len(blk.Entries) != 4 || len(blk.Entries[1].Key) != 0 || string(blk.Entries[1].Value) != "v1" {
			t.Fatalf("writers %v: logged block = %+v", writers, blk)
		}

		out = f.node.Receive(7, wire.Envelope{From: "cloud", To: "edge-1", Msg: f.certifyBlock(t, 0)})
		if got := perClient(out, wire.KindBlockProof); fmt.Sprint(got) != fmt.Sprint(want) || len(out) != len(want) {
			t.Fatalf("writers %v: proofs %v among %v, want %v", writers, got, kindsOf(out), want)
		}
		if f.node.lead.waiters.Len() != 0 {
			t.Fatalf("writers %v: %d blocks still waited on", writers, f.node.lead.waiters.Len())
		}
	}
}

func TestFlushTickCutsPartialBlock(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 10, FlushEvery: 100})
	f.add(t, 1000, "c1", 1, "only")
	if out := f.node.Tick(1050); out != nil {
		t.Fatal("flushed before interval")
	}
	out := f.node.Tick(1200)
	if kindsOf(out)[wire.KindPutResponse] != 1 {
		t.Fatalf("flush outputs = %v", kindsOf(out))
	}
}

// TestConfigZeroMeansLayerDefault pins the zero rule: fill maps a zero
// FlushEvery to the layer default (100ms) and leaves a negative one, which
// turns the flush timer off; Validate accepts the negative value.
func TestConfigZeroMeansLayerDefault(t *testing.T) {
	const def = int64(100 * time.Millisecond)
	if got := Defaults().FlushEvery; got != def {
		t.Fatalf("default FlushEvery = %v, want 100ms", time.Duration(got))
	}
	on := newFixture(t, Config{BatchSize: 10})
	on.add(t, 0, "c1", 1, "partial")
	if out := on.node.Tick(def - 1); out != nil {
		t.Fatalf("flushed before the default period: %v", kindsOf(out))
	}
	if k := kindsOf(on.node.Tick(def)); k[wire.KindPutResponse] != 1 {
		t.Fatalf("zero FlushEvery: default-period tick released %v, want the partial block", k)
	}

	off := Config{ID: "edge-1", BatchSize: 10, FlushEvery: -1}
	if err := off.Validate(); err != nil {
		t.Fatalf("negative FlushEvery rejected: %v", err)
	}
	f := newFixture(t, off)
	f.add(t, 0, "c1", 1, "partial")
	if out := f.node.Tick(int64(time.Hour)); out != nil {
		t.Fatalf("negative FlushEvery still flushed: %v", kindsOf(out))
	}
}

func TestPutBatchCutsAlignedBlock(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 3})
	batch := sessionBatch(f, "c1", []uint64{1, 2, 3})
	out := f.node.Receive(1, wire.Envelope{From: "c1", To: "edge-1", Msg: batch})
	k := kindsOf(out)
	if k[wire.KindPutResponse] != 1 || k[wire.KindBlockCertify] != 1 {
		t.Fatalf("batch outputs = %v", k)
	}
	if f.node.Log().NumBlocks() != 1 {
		t.Fatalf("blocks = %d", f.node.Log().NumBlocks())
	}
}

func TestShedEmitsSignedOverloadSignal(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1, MaxUncertified: 1})
	// One write cuts one block; with nothing certified the backlog sits
	// at the cap and the next write must be shed.
	f.add(t, 1, "c1", 1, "a")

	out := f.add(t, 2, "c1", 2, "b")
	if kindsOf(out)[wire.KindOverloaded] != 1 {
		t.Fatalf("shed write answered with %v, want one Overloaded", kindsOf(out))
	}
	m := out[0].Msg.(*wire.Overloaded)
	if m.Seq != 2 || m.Backlog != 1 || m.RetryAfter <= 0 {
		t.Fatalf("signal = %+v", m)
	}
	if err := wcrypto.VerifyMsg(f.reg, "edge-1", m, m.EdgeSig); err != nil {
		t.Fatalf("overload signal unsigned: %v", err)
	}

	// Within the retry-after window the same client is rate-limited: a
	// shed burst costs one signature, not one per entry.
	if out := f.add(t, 3, "c1", 3, "c"); out != nil {
		t.Fatalf("second shed in window produced %v, want silence", kindsOf(out))
	}
	// A different client gets its own signal.
	if out := f.add(t, 4, "c2", 1, "d"); kindsOf(out)[wire.KindOverloaded] != 1 {
		t.Fatalf("second client got %v, want its own Overloaded", kindsOf(out))
	}
	// After the window elapses the first client is signalled again.
	if out := f.add(t, 2+m.RetryAfter, "c1", 4, "e"); kindsOf(out)[wire.KindOverloaded] != 1 {
		t.Fatalf("post-window shed got %v, want a fresh Overloaded", kindsOf(out))
	}
	if got := f.node.Stats().ShedSignals; got != 3 {
		t.Fatalf("ShedSignals = %d, want 3", got)
	}
}

// TestGetAndScanCounters: a get is the scan of its key's point range, and
// still counts as a get — in Stats.Gets and wedge_edge_gets_total — while
// any other range counts as a scan.
func TestGetAndScanCounters(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 1})
	f.put(1, "c1", f.entry("c1", 1, "k", "v"))
	start, end := wire.PointRange([]byte("k"))
	for i, r := range [][2][]byte{{start, end}, {start, end}, {[]byte("a"), []byte("z")}, {nil, nil}, {start, append(end, 0)}} {
		if out := f.node.Receive(2, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ScanRequest{Start: r[0], End: r[1], ReqID: uint64(i + 1)}}); len(out) != 1 {
			t.Fatalf("request %d: %d answers", i, len(out))
		}
	}
	if st := f.node.Stats(); st.Gets != 2 || st.Scans != 3 {
		t.Fatalf("gets %d scans %d, want 2 and 3", st.Gets, st.Scans)
	}
}
