package wire

import "testing"

// recount returns the envelope size through the non-memoized path.
func recount(env Envelope) int {
	e := Encoder{counting: true}
	appendEnvelope(&e, env)
	return e.n
}

// TestEncodedSizeMemoMatchesRecount pins the memo's correctness: for every
// memoizing message kind, the first (computing) call, the second (memoized)
// call and a from-scratch recount must agree, frozen or not.
func TestEncodedSizeMemoMatchesRecount(t *testing.T) {
	frozen := sampleBlock()
	frozen.Freeze()
	proof := BlockProof{Edge: "edge-1", BID: 12, Digest: randBytes(32), CloudSig: randBytes(64)}
	msgs := []Message{
		&PutResponse{BID: 12, Block: frozen, EdgeSig: randBytes(64)},
		&ReadResponse{ReqID: 1, BID: 12, OK: true, Block: frozen, HasProof: true, Proof: proof, EdgeSig: randBytes(64)},
	}
	for _, m := range msgs {
		env := Envelope{From: "edge-1", To: "c1", Msg: m}
		want := recount(env)
		if got := EncodedSize(env); got != want {
			t.Errorf("%v: first EncodedSize = %d, recount = %d", m.MsgKind(), got, want)
		}
		if got := EncodedSize(env); got != want {
			t.Errorf("%v: memoized EncodedSize = %d, recount = %d", m.MsgKind(), got, want)
		}
		if mm := m.(sizeMemoized); mm.encodedSizeMemo() == 0 {
			t.Errorf("%v: frozen-block message did not memoize", m.MsgKind())
		}
		// Different routing header, same memoized body.
		env2 := Envelope{From: "edge-longer-name", To: "c1", Msg: m}
		if got, want := EncodedSize(env2), recount(env2); got != want {
			t.Errorf("%v: memo ignored header size: got %d want %d", m.MsgKind(), got, want)
		}
	}
}

// TestEncodedSizeMemoRefusesUnfrozen pins the immutability gate: a message
// whose block is not frozen — e.g. a fault path that Invalidated it before
// tampering — must keep recounting, so a later mutation can never be
// served a stale size.
func TestEncodedSizeMemoRefusesUnfrozen(t *testing.T) {
	m := &PutResponse{BID: 12, Block: sampleBlock(), EdgeSig: randBytes(64)}
	env := Envelope{From: "edge-1", To: "c1", Msg: m}
	before := EncodedSize(env)
	if m.encodedSizeMemo() != 0 {
		t.Fatal("unfrozen block message memoized its size")
	}
	m.Block.Entries = append(m.Block.Entries, sampleEntry(9))
	if after := EncodedSize(env); after <= before {
		t.Fatalf("size did not track mutation: before %d after %d", before, after)
	}
}

// TestEncodedSizeMemoResetOnDecode pins that decoding reuses no memo from
// a previous life of the struct.
func TestEncodedSizeMemoResetOnDecode(t *testing.T) {
	frozen := sampleBlock()
	frozen.Freeze()
	m := &PutResponse{BID: 12, Block: frozen, EdgeSig: randBytes(64)}
	EncodedSize(Envelope{From: "a", To: "b", Msg: m})
	if m.encodedSizeMemo() == 0 {
		t.Fatal("setup: memo not populated")
	}
	enc := EncodeEnvelope(Envelope{From: "a", To: "b", Msg: m})
	got, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Msg.(*PutResponse).encodedSizeMemo() != 0 {
		t.Fatal("decode left a stale size memo")
	}
}

// BenchmarkEncodedSizeFrozenMemo measures the simulator's per-message size
// charge for a frozen block acknowledgement with the memo warm — the term
// the discrete-event sim pays on every send.
func BenchmarkEncodedSizeFrozenMemo(b *testing.B) {
	blk := sampleBlock()
	blk.Freeze()
	env := Envelope{From: "edge-1", To: "c1", Msg: &PutResponse{BID: 12, Block: blk, EdgeSig: randBytes(64)}}
	EncodedSize(env) // warm the memo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sizeSink = EncodedSize(env)
	}
}

// BenchmarkEncodedSizeFrozenRecount is the same charge through the
// recounting path (memo cold on every call), for comparison.
func BenchmarkEncodedSizeFrozenRecount(b *testing.B) {
	blk := sampleBlock()
	blk.Freeze()
	m := &PutResponse{BID: 12, Block: blk, EdgeSig: randBytes(64)}
	env := Envelope{From: "edge-1", To: "c1", Msg: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.encSize = 0
		sizeSink = EncodedSize(env)
	}
}

var sizeSink int
