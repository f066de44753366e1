package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// rnd builds deterministic pseudo-random test inputs.
var rnd = rand.New(rand.NewSource(42))

func randBytes(n int) []byte {
	b := make([]byte, n)
	rnd.Read(b)
	return b
}

func sampleEntry(i int) Entry {
	return Entry{
		Client: NodeID("client-" + string(rune('a'+i%3))),
		Seq:    uint64(i),
		Key:    randBytes(8),
		Value:  randBytes(32),
		Ts:     int64(1000 + i),
		Pos:    uint64(i * 7),
		Sig:    randBytes(64),
	}
}

func sampleBlock() Block {
	b := Block{Edge: "edge-1", ID: 12, StartPos: 1200, Ts: 999}
	for i := 0; i < 5; i++ {
		b.Entries = append(b.Entries, sampleEntry(i))
	}
	return b
}

// sampleSlice is a decodable (not a verifiable) slice: every field set.
func sampleSlice(id uint64) L0Slice {
	return L0Slice{
		Edge:      "edge-1",
		ID:        id,
		StartPos:  id * 100,
		Ts:        888,
		Count:     9,
		Begin:     3,
		Left:      &SliceFlank{Key: []byte("aaa"), Index: 7, Hash: randBytes(32)},
		Rows:      []SliceRow{{Index: 2, Entry: sampleEntry(2)}, {Index: 5, Entry: sampleEntry(5)}},
		Right:     &SliceFlank{Key: []byte("zzz"), Index: 0, Hash: randBytes(32)},
		PathLeft:  [][]byte{randBytes(32)},
		PathRight: [][]byte{randBytes(32), randBytes(32)},
		CertSig:   randBytes(64),
	}
}

func samplePage(level uint32) Page {
	p := Page{
		Level: level,
		Seq:   77,
		Lo:    []byte("aaa"),
		Hi:    []byte("mmm"),
		Ts:    5555,
	}
	for i := 0; i < 4; i++ {
		p.KVs = append(p.KVs, KV{Key: randBytes(6), Value: randBytes(20), Ver: uint64(i)})
	}
	p.Count = uint32(len(p.KVs))
	return p
}

// sampleMessages returns one populated instance of every message kind.
func sampleMessages() []Message {
	blk := sampleBlock()
	proof := BlockProof{Edge: "edge-1", BID: 12, Digest: randBytes(32), CloudSig: randBytes(64)}
	global := SignedRoot{Edge: "edge-1", Epoch: 3, Root: randBytes(32), Ts: 123, CloudSig: randBytes(64)}
	return []Message{
		&BlockCertify{Edge: "edge-1", BID: 12, Digest: randBytes(32), MAC: randBytes(32)},
		&proof,
		&ReadRequest{BID: 12, ReqID: 9},
		&ReadResponse{ReqID: 9, BID: 12, OK: true, Ts: 77, Block: blk, HasProof: true, Proof: proof, EdgeSig: randBytes(64)},
		&Gossip{Edge: "edge-1", Ts: 50, LogSize: 900, Blocks: 9, CloudSig: randBytes(64)},
		&Dispute{Kind: DisputeAddLie, Edge: "edge-1", BID: 12, Evidence: randBytes(100), Evidence2: randBytes(40), ClientSig: randBytes(64)},
		&Verdict{Edge: "edge-1", BID: 12, Kind: DisputeReadLie, Guilty: true, Reason: "digest mismatch", CloudSig: randBytes(64)},
		&ReserveRequest{Client: "client-a", Count: 4, ReqID: 2, ClientSig: randBytes(64)},
		&ReserveResponse{ReqID: 2, Start: 40, Count: 4, EdgeSig: randBytes(64)},
		&PutRequest{Entry: sampleEntry(2)},
		&PutResponse{BID: 13, Block: blk, EdgeSig: randBytes(64)},
		&GetRequest{Key: []byte("k"), ReqID: 4},
		&GetResponse{
			ReqID: 4, Key: []byte("k"), Found: true, Value: randBytes(10), Ver: 2,
			Proof: GetProof{
				L0Pruned: []L0Slice{sampleSlice(13), {Edge: "edge-1", ID: 14}},
				Levels: []LevelProof{{
					Level: 1, Page: samplePage(1), Index: 2, Width: 4,
					Path: [][]byte{randBytes(32), randBytes(32)},
				}},
				Roots:  [][]byte{randBytes(32), randBytes(32)},
				Global: global,
			},
			EdgeSig: randBytes(64),
		},
		&MergeRequest{Edge: "edge-1", ReqID: 1, L0Blocks: []Block{blk}, EdgeSig: randBytes(64)},
		&MergeRequest{Edge: "edge-1", ReqID: 2, FromLevel: 1, EdgeSig: randBytes(64)}, // a level merge: header only
		&MergeResponse{
			Edge: "edge-1", ReqID: 1, OK: true, FromLevel: 0,
			PageSeq: 41, PageCap: 100,
			NewPages:   []Page{samplePage(1), samplePage(1)},
			Roots:      [][]byte{randBytes(32)},
			Global:     global,
			ConsumedTo: 12,
			CloudSig:   randBytes(64),
		},
		&CloudPutResponse{BID: 5, OK: true},
		&CloudGetRequest{Key: []byte("k2"), ReqID: 6},
		&CloudGetResponse{ReqID: 6, Found: false},
		&EBPutResponse{BID: 7, OK: true},
		&EBStatePush{
			Epoch: 2, Block: blk, Proof: proof,
			Pages:  []Page{samplePage(2)},
			Roots:  [][]byte{randBytes(32), randBytes(32)},
			Global: global, CloudSig: randBytes(64),
		},
		&EBStateAck{Epoch: 2, EdgeSig: randBytes(64)},
		&Ping{Seq: 1, Ts: 2},
		&Pong{Seq: 1, Ts: 2},
		&PutBatch{Client: "client-a", Entries: []Entry{sampleEntry(5), sampleEntry(6)}, MAC: randBytes(32)},
		&CloudPutBatch{Entries: []Entry{sampleEntry(7)}},
		&EBPutBatch{Edge: "edge-2", Entries: []Entry{sampleEntry(8), sampleEntry(9)}},
		&ShardMap{
			Version: 1, Epoch: 4,
			Edges:     []NodeID{"edge-1", "edge-2", "edge-3"},
			Followers: [][]NodeID{{"edge-1.r1", "edge-1.r2"}, nil, {"edge-3.r1"}},
			CloudSig:  randBytes(64),
		},
		&ScanRequest{Start: []byte("a"), End: []byte("m"), Limit: 50, ReqID: 11},
		&ScanResponse{
			ReqID: 11, Start: []byte("a"), End: nil,
			Proof: ScanProof{
				L0Pruned: []L0Slice{sampleSlice(13), sampleSlice(14)},
				Levels: []LevelRangeProof{{
					Level: 1, First: 2, Width: 9,
					Pages: []Page{samplePage(1), samplePage(1)},
					Left:  [][]byte{randBytes(32)},
					Right: [][]byte{randBytes(32), randBytes(32)},
				}},
				Roots:  [][]byte{randBytes(32), randBytes(32)},
				Global: global,
			},
			EdgeSig: randBytes(64),
		},
		&ReplicateBlock{Chain: "edge-1", Leader: "edge-1.r1", Block: blk, LeaderSig: randBytes(64)},
		&ReplicaHeartbeat{Node: "edge-1.r2", Chain: "edge-1", Blocks: 14, Certified: 12, Epoch: 3, Leader: "edge-1.r1", Ts: 321, Sig: randBytes(64)},
		&ReplicaHeartbeat{Node: "edge-1.r2", Chain: "edge-1", Blocks: 14, Certified: 12, Ts: 321, Sig: randBytes(64)},
		&LeadershipTransfer{
			Chain: "edge-1", Epoch: 2, Prev: "edge-1", NewLeader: "edge-1.r1",
			Followers: []NodeID{"edge-1.r2"}, Reason: "crash", Ts: 456, CloudSig: randBytes(64),
		},
		&CatchUpRequest{Chain: "edge-1", Node: "edge-1.r2", From: 7, Ts: 99, Sig: randBytes(64)},
		&ReplicateBlock{Chain: "edge-1", Leader: "edge-1.r1", Block: blk, LeaderSig: randBytes(64), Through: 19, Cert: &proof},
		&LeadershipTransfer{
			Chain: "edge-1", Epoch: 3, Prev: "edge-1.r1", NewLeader: "edge-1.r1",
			Followers: []NodeID{"edge-1.r2", "edge-1"}, Reason: "rejoin", Ts: 17, CloudSig: randBytes(64),
		},
		&FrontierRequest{Chain: "edge-1"},
		&Overloaded{Seq: 42, ReqID: 7, RetryAfter: 1e8, Backlog: 9, EdgeSig: randBytes(64)},
		&BlockCertifyBatch{
			Edge: "edge-1", Start: 12,
			Digests: [][]byte{randBytes(32), randBytes(32), randBytes(32)},
			EdgeSig: randBytes(64),
		},
		&BlockCertBatch{
			Edge: "edge-1", Start: 12,
			Digests:  [][]byte{randBytes(32), randBytes(32), randBytes(32)},
			CloudSig: randBytes(64),
		},
	}
}

// TestEveryMessageRoundTrips checks decode(encode(m)) == m and that the
// encoding is canonical (re-encoding is byte-identical) for every message
// kind in the protocol.
func TestEveryMessageRoundTrips(t *testing.T) {
	msgs := sampleMessages()
	seen := map[Kind]bool{}
	for _, m := range msgs {
		seen[m.MsgKind()] = true
		env := Envelope{From: "a", To: "b", Msg: m}
		enc := EncodeEnvelope(env)
		got, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.MsgKind(), err)
		}
		if got.From != "a" || got.To != "b" {
			t.Errorf("%v: routing lost: %+v", m.MsgKind(), got)
		}
		if !reflect.DeepEqual(got.Msg, m) {
			t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", m.MsgKind(), got.Msg, m)
		}
		re := EncodeEnvelope(got)
		if !bytes.Equal(re, enc) {
			t.Errorf("%v: encoding not canonical", m.MsgKind())
		}
	}
	// Every kind in the registry must be covered by this test.
	for k := KindInvalid + 1; k < kindEnd; k++ {
		if kinds[k].new != nil && !seen[k] {
			t.Errorf("kind %v has no round-trip coverage", k)
		}
	}
}

// retiredFrames returns envelopes as binaries before kinds 1, 2, 38 and 39
// were retired framed them: a log-append request (an entry and a flag
// byte), its response (the PutResponse body), a catch-up response (chain,
// leader, first block id, the leader's block count, then items of block,
// transfer signature, certificate flag and certificate), and a group join
// (chain, node, leader, epoch, timestamp, cloud signature).
func retiredFrames() [][]byte {
	req := EncodeEnvelope(Envelope{From: "a", To: "b", Msg: &PutRequest{Entry: sampleEntry(1)}})
	req = append(req, 1)
	resp := EncodeEnvelope(Envelope{From: "a", To: "b", Msg: &PutResponse{BID: 12, Block: sampleBlock(), EdgeSig: randBytes(64)}})
	binary.BigEndian.PutUint16(req, 1)
	binary.BigEndian.PutUint16(resp, 2)

	var e Encoder
	e.U16(38)
	e.ID("a")
	e.ID("b")
	e.ID("edge-1")
	e.ID("edge-1.r1")
	e.U64(12)
	e.U64(14)
	e.U32(2)
	blk := sampleBlock()
	blk.EncodeTo(&e)
	e.Blob(randBytes(64))
	e.U32(1)
	(&BlockProof{Edge: "edge-1", BID: 12, Digest: randBytes(32), CloudSig: randBytes(64)}).EncodeTo(&e)
	blk.ID = 13
	blk.EncodeTo(&e)
	e.Blob(randBytes(64))
	e.U32(0)

	var j Encoder
	j.U16(39)
	j.ID("cloud")
	j.ID("edge-1.r2")
	for _, id := range []NodeID{"edge-1", "edge-1.r2", "edge-1.r1"} {
		j.ID(id)
	}
	j.U64(3)
	j.I64(17)
	j.Blob(randBytes(64))

	// 18 and 22: a baseline's single write, one signed entry (and, for the
	// Edge-baseline, the edge it was for).
	var cp, eb Encoder
	entry := sampleEntry(3)
	for k, f := range map[uint16]*Encoder{18: &cp, 22: &eb} {
		f.U16(k)
		f.ID("c1")
		f.ID("cloud")
		entry.EncodeTo(f)
	}
	eb.ID("edge-2")
	return [][]byte{req, resp, e.Bytes(), j.Bytes(), cp.Bytes(), eb.Bytes()}
}

// TestHeartbeatSignsItsView: a heartbeat's epoch and leader are part of
// the body its sender signs, so nobody can restate the view a replica
// reported.
func TestHeartbeatSignsItsView(t *testing.T) {
	hb := ReplicaHeartbeat{Node: "edge-1.r1", Chain: "edge-1", Blocks: 4, Certified: 3, Epoch: 2, Leader: "edge-1", Ts: 9}
	body := BodyBytes(&hb)
	for name, mutate := range map[string]func(m *ReplicaHeartbeat){
		"epoch":     func(m *ReplicaHeartbeat) { m.Epoch++ },
		"leader":    func(m *ReplicaHeartbeat) { m.Leader = "edge-1.r2" },
		"no leader": func(m *ReplicaHeartbeat) { m.Leader = "" },
	} {
		m := hb
		mutate(&m)
		if bytes.Equal(BodyBytes(&m), body) {
			t.Errorf("%s: the signed body does not change", name)
		}
	}
	m := hb
	m.Sig = randBytes(64)
	if !bytes.Equal(BodyBytes(&m), body) {
		t.Error("the signed body depends on the signature")
	}
}

// TestKindNumbersPinned holds every kind to its number on the wire: a kind
// is added at the end, a retired number (1, 2, 18, 22, 38, 39) stays
// unnamed and undecodable, and nothing is ever renumbered.
func TestKindNumbersPinned(t *testing.T) {
	pinned := map[string]Kind{
		"BlockCertify": 3, "BlockProof": 4, "ReadRequest": 5, "ReadResponse": 6,
		"Gossip": 7, "Dispute": 8, "Verdict": 9, "ReserveRequest": 10, "ReserveResponse": 11,
		"PutRequest": 12, "PutResponse": 13, "GetRequest": 14, "GetResponse": 15,
		"MergeRequest": 16, "MergeResponse": 17,
		"CloudPutResponse": 19, "CloudGetRequest": 20, "CloudGetResponse": 21,
		"EBPutResponse": 23, "EBStatePush": 24, "EBStateAck": 25,
		"Ping": 26, "Pong": 27, "PutBatch": 28, "CloudPutBatch": 29, "EBPutBatch": 30,
		"ShardMap": 31, "ScanRequest": 32, "ScanResponse": 33,
		"ReplicateBlock": 34, "ReplicaHeartbeat": 35, "LeadershipTransfer": 36,
		"CatchUpRequest": 37, "FrontierRequest": 40,
		"Overloaded": 41, "BlockCertifyBatch": 42, "BlockCertBatch": 43,
	}
	retired := map[Kind]bool{1: true, 2: true, 18: true, 22: true, 38: true, 39: true}
	byNumber := map[Kind]string{}
	for name, k := range pinned {
		byNumber[k] = name
	}
	// String is total: the harness calls it for every value it may see.
	for k := Kind(0); k < 64; k++ {
		want, live := byNumber[k]
		if live && retired[k] {
			t.Errorf("kind %d is both pinned and retired", uint16(k))
		}
		if !live {
			want = fmt.Sprintf("Kind(%d)", uint16(k))
		}
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint16(k), got, want)
		}
		m, err := newMessage(k)
		if live != (err == nil) {
			t.Errorf("newMessage(%d): err = %v, live = %v", uint16(k), err, live)
		}
		if err == nil && m.MsgKind() != k {
			t.Errorf("row %d constructs a %v", uint16(k), m.MsgKind())
		}
	}
	if int(kindEnd) != 1+len(pinned)+len(retired) {
		t.Errorf("kindEnd = %d with %d kinds pinned: pin the new kind's number here", kindEnd, len(pinned))
	}
	for _, frame := range retiredFrames() {
		k := Kind(binary.BigEndian.Uint16(frame))
		if !retired[k] {
			t.Errorf("retired frame of kind %d, which is not in the retired set", uint16(k))
		}
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Errorf("frame of retired kind %d decoded", uint16(k))
		}
	}
}

func TestDecodeEnvelopeRejectsUnknownKind(t *testing.T) {
	var e Encoder
	e.U16(9999)
	e.ID("a")
	e.ID("b")
	if _, err := DecodeEnvelope(e.Bytes()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDecodeEnvelopeRejectsTrailing(t *testing.T) {
	enc := EncodeEnvelope(Envelope{From: "a", To: "b", Msg: &Ping{Seq: 1}})
	enc = append(enc, 0x00)
	if _, err := DecodeEnvelope(enc); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeEnvelopeRejectsTruncation(t *testing.T) {
	enc := EncodeEnvelope(Envelope{From: "a", To: "b", Msg: &PutResponse{BID: 1, Block: sampleBlock()}})
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeEnvelope(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Every message kind that carries a signature, and the two signed types
// embedded in messages, must be signable: a new one that forgets AppendBody
// stops this package's tests from compiling.
var _ = [...]BodyAppender{
	(*Entry)(nil), (*SignedRoot)(nil),
	(*BlockCertify)(nil), (*BlockProof)(nil), (*ReadResponse)(nil),
	(*Gossip)(nil), (*Dispute)(nil), (*Verdict)(nil), (*ReserveRequest)(nil), (*ReserveResponse)(nil),
	(*PutResponse)(nil), (*GetResponse)(nil), (*MergeRequest)(nil), (*MergeResponse)(nil),
	(*EBStatePush)(nil), (*EBStateAck)(nil), (*PutBatch)(nil), (*ShardMap)(nil), (*ScanResponse)(nil),
	(*ReplicateBlock)(nil), (*ReplicaHeartbeat)(nil), (*LeadershipTransfer)(nil),
	(*CatchUpRequest)(nil), (*Overloaded)(nil),
	(*BlockCertifyBatch)(nil), (*BlockCertBatch)(nil),
}

func TestSignableBodyExcludesSignature(t *testing.T) {
	m1 := &BlockCertify{Edge: "e", BID: 1, Digest: []byte{1, 2}, MAC: []byte{9}}
	m2 := &BlockCertify{Edge: "e", BID: 1, Digest: []byte{1, 2}, MAC: []byte{8, 8, 8}}
	if !bytes.Equal(BodyBytes(m1), BodyBytes(m2)) {
		t.Fatal("signable body depends on signature")
	}
	m3 := &BlockCertify{Edge: "e", BID: 2, Digest: []byte{1, 2}}
	if bytes.Equal(BodyBytes(m1), BodyBytes(m3)) {
		t.Fatal("signable body ignores BID")
	}
}

// TestMergeBodiesAreCommitments: a merge request is signed over its
// header and one hash per block, each changing when its block does, and
// held digests give the same body as recomputed ones; level pages are
// neither encoded nor signed; a merge response is signed over everything
// but its pages.
func TestMergeBodiesAreCommitments(t *testing.T) {
	blk, src, dst := sampleBlock(), samplePage(1), samplePage(2)
	req := &MergeRequest{Edge: "edge-1", ReqID: 1, L0Blocks: []Block{blk}}
	body := BodyBytes(req)
	if want := 4 + 6 + 8 + 4 + 4 + 36; len(body) != want {
		t.Fatalf("request body is %d bytes, want %d: it must hold no block bytes", len(body), want)
	}
	var held Encoder
	req.AppendBodyWithDigests(&held, [][]byte{blk.BodyDigest()})
	if !bytes.Equal(held.Bytes(), body) {
		t.Fatal("held digests and recomputed ones give different bodies")
	}
	mutations := map[string]func(m *MergeRequest){
		"block entry": func(m *MergeRequest) {
			m.L0Blocks[0].Entries = append([]Entry(nil), blk.Entries...)
			m.L0Blocks[0].Entries[0].Value = []byte("x")
		},
		"block id":   func(m *MergeRequest) { m.L0Blocks[0].ID++ },
		"level":      func(m *MergeRequest) { m.FromLevel++ },
		"no blocks":  func(m *MergeRequest) { m.L0Blocks = nil },
		"request id": func(m *MergeRequest) { m.ReqID++ },
	}
	for name, mutate := range mutations {
		m := &MergeRequest{Edge: "edge-1", ReqID: 1, L0Blocks: []Block{blk}}
		mutate(m)
		if bytes.Equal(BodyBytes(m), body) {
			t.Errorf("request body ignores a changed %s", name)
		}
	}
	withPages := *req
	withPages.SrcPages, withPages.DstPages = []Page{src}, []Page{dst}
	if !bytes.Equal(BodyBytes(&withPages), body) || !bytes.Equal(EncodeMessage(&withPages), EncodeMessage(req)) {
		t.Fatal("level pages reach a merge request's body or encoding")
	}

	resp := &MergeResponse{Edge: "edge-1", ReqID: 1, OK: true, PageSeq: 7, PageCap: 100, Roots: [][]byte{randBytes(32)}, ConsumedTo: 3}
	signed := BodyBytes(resp)
	resp.NewPages = []Page{src, dst}
	if !bytes.Equal(BodyBytes(resp), signed) {
		t.Fatal("response body depends on its pages")
	}
	for name, mutate := range map[string]func(m *MergeResponse){
		"page seq": func(m *MergeResponse) { m.PageSeq++ },
		"page cap": func(m *MergeResponse) { m.PageCap++ },
		"ts":       func(m *MergeResponse) { m.Global.Ts++ },
		"root":     func(m *MergeResponse) { m.Roots = [][]byte{randBytes(32)} },
	} {
		m := *resp
		mutate(&m)
		if bytes.Equal(BodyBytes(&m), signed) {
			t.Errorf("response body ignores a changed %s", name)
		}
	}
}

func TestPageContains(t *testing.T) {
	cases := []struct {
		lo, hi []byte
		key    []byte
		want   bool
	}{
		{nil, nil, []byte("anything"), true},
		{[]byte("b"), []byte("d"), []byte("b"), true},
		{[]byte("b"), []byte("d"), []byte("c"), true},
		{[]byte("b"), []byte("d"), []byte("d"), false}, // exclusive hi
		{[]byte("b"), []byte("d"), []byte("a"), false},
		{nil, []byte("d"), []byte("a"), true},
		{[]byte("b"), nil, []byte("zzz"), true},
		{[]byte("b"), nil, []byte("a"), false},
	}
	for _, c := range cases {
		p := Page{Lo: c.lo, Hi: c.hi}
		if got := p.Contains(c.key); got != c.want {
			t.Errorf("Contains(%q) in [%q,%q) = %v, want %v", c.key, c.lo, c.hi, got, c.want)
		}
	}
}

func TestEntryEqual(t *testing.T) {
	a := sampleEntry(1)
	b := a
	if !a.Equal(&b) {
		t.Fatal("identical entries not equal")
	}
	b.Value = append([]byte{}, a.Value...)
	b.Value[0] ^= 1
	if a.Equal(&b) {
		t.Fatal("differing entries equal")
	}
}

func TestBlockCanonicalStable(t *testing.T) {
	b := sampleBlock()
	if !bytes.Equal(b.Canonical(), b.Canonical()) {
		t.Fatal("Canonical not deterministic")
	}
	b2 := b
	b2.ID++
	if bytes.Equal(b.Canonical(), b2.Canonical()) {
		t.Fatal("Canonical ignores block id")
	}
}

func TestMessageSizeAccounting(t *testing.T) {
	small := Envelope{From: "a", To: "b", Msg: &BlockCertify{Edge: "e", BID: 1, Digest: randBytes(32), MAC: randBytes(32)}}
	big := Envelope{From: "a", To: "b", Msg: &PutResponse{BID: 1, Block: sampleBlock(), EdgeSig: randBytes(64)}}
	if EncodedSize(small) >= EncodedSize(big) {
		t.Fatalf("digest-only certify (%d B) should be smaller than block response (%d B)",
			EncodedSize(small), EncodedSize(big))
	}
}
