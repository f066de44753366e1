package client

import (
	"errors"
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestResendKeepsReservedPosition: an AddAt whose first send is lost is
// re-sent for the position it reserved — by the retry pass and by a
// failover rebind — never as a plain append that lands at the next free
// position and leaves the reservation to expire into a no-op.
func TestResendKeepsReservedPosition(t *testing.T) {
	f := overloadFixture(t, Config{ProofTimeout: 48_000})
	const reserved = 41
	op, envs := f.c.AddAt(10, []byte("exactly-once"), reserved)
	first := entryOf(t, envs) // dropped: the edge never sees it
	if first.Pos != reserved+1 {
		t.Fatalf("first send signed for Pos %d, want %d", first.Pos, reserved+1)
	}
	check := func(how string, out []wire.Envelope) {
		t.Helper()
		e := entryOf(t, out)
		if e.Pos != first.Pos || e.Seq != first.Seq || string(e.Value) != "exactly-once" || len(e.Key) != 0 {
			t.Fatalf("%s: re-sent entry = %+v, want seq %d at Pos %d", how, e, first.Seq, first.Pos)
		}
		if b := batchOf(t, out); !f.macVerifies(b, out[0].To) {
			t.Fatalf("%s: re-sent batch not MACed for its position", how)
		}
	}
	check("retry", f.c.Tick(10_000))

	tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 2, Prev: "edge-1", NewLeader: "edge-2", Reason: "crash"}
	tr.CloudSig = wcrypto.SignMsg(f.keys["cloud"], tr)
	out := f.c.Receive(20_000, wire.Envelope{From: "cloud", To: "c1", Msg: tr})
	if len(out) != 1 || out[0].To != "edge-2" {
		t.Fatalf("rebind sent %d envelopes (to %v), want the one write to edge-2", len(out), out)
	}
	check("rebind", out)
	if op.Done {
		t.Fatalf("op settled: %v", op.Err)
	}
}

// TestReserveRefusesOversizedCount: a count the edge would refuse never
// leaves the client; the bound itself passes.
func TestReserveRefusesOversizedCount(t *testing.T) {
	f := newFixture(t)
	envs, err := f.c.Reserve(10, wire.MaxReserve+1)
	if !errors.Is(err, ErrReserveTooLarge) || envs != nil {
		t.Fatalf("Reserve(MaxReserve+1) = %v, %v", envs, err)
	}
	envs, err = f.c.Reserve(10, wire.MaxReserve)
	if err != nil || len(envs) != 1 {
		t.Fatalf("Reserve(MaxReserve) = %v, %v", envs, err)
	}
}

// TestResendIsOneBatch: the retry pass and a failover rebind re-send every
// due write as one batch under one MAC for the edge it goes to, each entry
// under the seq it was first sent with, and a due read beside it as its
// own request.
func TestResendIsOneBatch(t *testing.T) {
	f := overloadFixture(t, Config{ProofTimeout: 48_000})
	var seqs []uint64
	for i := 0; i < 3; i++ {
		op, _ := f.c.Put(10, []byte{'k', byte('a' + i)}, []byte("v"))
		seqs = append(seqs, op.Seq)
	}
	ops, _ := f.c.PutBatch(10, [][]byte{[]byte("kx"), []byte("ky")}, [][]byte{[]byte("v"), []byte("v")})
	for _, op := range ops {
		seqs = append(seqs, op.Seq)
	}
	read, _ := f.c.Read(10, 7)
	check := func(how string, out []wire.Envelope, to wire.NodeID) {
		t.Helper()
		var batches []*wire.PutBatch
		reads := 0
		for _, env := range out {
			if env.To != to {
				t.Fatalf("%s: %T sent to %s, want %s", how, env.Msg, env.To, to)
			}
			switch m := env.Msg.(type) {
			case *wire.PutBatch:
				batches = append(batches, m)
			case *wire.ReadRequest:
				if m.ReqID != read.ReqID {
					t.Fatalf("%s: read re-sent under request id %d, want %d", how, m.ReqID, read.ReqID)
				}
				reads++
			default:
				t.Fatalf("%s: unexpected %T", how, env.Msg)
			}
		}
		if len(batches) != 1 || reads != 1 {
			t.Fatalf("%s: %d batches and %d reads, want 1 and 1", how, len(batches), reads)
		}
		b := batches[0]
		if !f.macVerifies(b, to) {
			t.Fatalf("%s: batch MAC does not verify at %s", how, to)
		}
		if to != "edge-1" && f.macVerifies(b, "edge-1") {
			t.Fatalf("%s: batch for %s still MACed for edge-1", how, to)
		}
		if len(b.Entries) != len(seqs) {
			t.Fatalf("%s: %d entries re-sent, want %d", how, len(b.Entries), len(seqs))
		}
		for i, e := range b.Entries {
			if e.Seq != seqs[i] || len(e.Sig) != 0 {
				t.Fatalf("%s: entry %d has seq %d and a %d-byte signature, want seq %d and none", how, i, e.Seq, len(e.Sig), seqs[i])
			}
		}
	}
	check("retry", f.c.Tick(10_000), "edge-1")
	if got := f.c.Stats().Resends; got != uint64(len(seqs)+1) {
		t.Fatalf("resends = %d, want one per re-sent op (%d)", got, len(seqs)+1)
	}

	tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 2, Prev: "edge-1", NewLeader: "edge-2", Reason: "crash"}
	tr.CloudSig = wcrypto.SignMsg(f.keys["cloud"], tr)
	check("rebind", f.c.Receive(20_000, wire.Envelope{From: "cloud", To: "c1", Msg: tr}), "edge-2")
}

// resendTimes ticks f's core once per nanosecond over [from, to) and
// returns, per op, the times a frame for it left: a write by its entry
// seq, a get by its request id.
func resendTimes(f *fixture, from, to int64, ops ...*Op) map[*Op][]int64 {
	at := make(map[*Op][]int64)
	for now := from; now < to; now++ {
		for _, env := range f.c.Tick(now) {
			for _, op := range ops {
				switch m := env.Msg.(type) {
				case *wire.PutBatch:
					for _, e := range m.Entries {
						if e.Seq == op.Seq && op.Kind == KindPut {
							at[op] = append(at[op], now)
						}
					}
				case *wire.ScanRequest:
					if m.ReqID == op.ReqID && op.Kind == KindGet {
						at[op] = append(at[op], now)
					}
				}
			}
		}
	}
	return at
}

// checkMarks requires each op re-sent exactly at T/8, T/4 and T/2 after
// from, each plus jitter under half its mark.
func checkMarks(t *testing.T, how string, at map[*Op][]int64, from, T int64, ops ...*Op) {
	t.Helper()
	for _, op := range ops {
		if len(at[op]) != 3 {
			t.Fatalf("%s: %v op re-sent at %v, want three times", how, op.Kind, at[op])
		}
		for k, sent := range at[op] {
			base := T >> (3 - k)
			if d := sent - from; d < base || d >= base+base/2 {
				t.Fatalf("%s: %v op re-send %d at +%d, want in [%d, %d)", how, op.Kind, k+1, d, base, base+base/2)
			}
		}
	}
}

// TestUnansweredOpResendsInsideProofTimeout: with no retry setting at
// all, a write and a get the edge never answers are re-sent at T/8, T/4
// and T/2 of the proof timeout T, each within its jitter band, and settle
// with ErrUnavailable at T — not a nanosecond before.
func TestUnansweredOpResendsInsideProofTimeout(t *testing.T) {
	const T = 8000
	f := overloadFixture(t, Config{ProofTimeout: T})
	put, _ := f.c.Put(0, []byte("k"), []byte("v"))
	get, _ := f.c.Get(0, []byte("k"))
	checkMarks(t, "start", resendTimes(f, 0, T, put, get), 0, T, put, get)
	if put.Done || get.Done || f.c.Pending() != 2 {
		t.Fatalf("settled before the proof timeout: put %v, get %v", put.Err, get.Err)
	}
	if got := f.c.Stats().Resends; got != 6 {
		t.Fatalf("resends = %d, want 6", got)
	}
	f.c.Tick(T)
	for _, op := range []*Op{put, get} {
		if !op.Done || !errors.Is(op.Err, ErrUnavailable) {
			t.Fatalf("%v op: done %v, err %v, want ErrUnavailable", op.Kind, op.Done, op.Err)
		}
	}
	if n := f.c.Pending(); n != 0 {
		t.Fatalf("Pending() = %d, want 0", n)
	}
}

// TestShedOpSettlesOverloadedAtProofTimeout: a write the edge shed, with
// a hint shorter than its marks, keeps its schedule and settles with
// ErrOverloaded at the proof timeout.
func TestShedOpSettlesOverloadedAtProofTimeout(t *testing.T) {
	const T = 8000
	f := overloadFixture(t, Config{ProofTimeout: T})
	op, _ := f.c.Put(0, []byte("k"), []byte("v"))
	f.c.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedOverload(op.Seq, 100)})
	checkMarks(t, "shed", resendTimes(f, 21, T, op), 0, T, op)
	if op.Done {
		t.Fatalf("shed op settled before the proof timeout: %v", op.Err)
	}
	f.c.Tick(T)
	if !op.Done || !errors.Is(op.Err, ErrOverloaded) {
		t.Fatalf("shed op at the proof timeout: done %v, err %v, want ErrOverloaded", op.Done, op.Err)
	}
}

// TestRebindRestartsResendSchedule: a failover rebind re-sends an
// unanswered write at once and counts its marks and its deadline afresh
// from the rebind.
func TestRebindRestartsResendSchedule(t *testing.T) {
	const T, rebind = 8000, 5000
	f := overloadFixture(t, Config{ProofTimeout: T})
	op, _ := f.c.Put(0, []byte("k"), []byte("v"))
	resendTimes(f, 0, rebind, op)
	tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 2, Prev: "edge-1", NewLeader: "edge-2", Reason: "crash"}
	tr.CloudSig = wcrypto.SignMsg(f.keys["cloud"], tr)
	if out := f.c.Receive(rebind, wire.Envelope{From: "cloud", To: "c1", Msg: tr}); len(out) != 1 || out[0].To != "edge-2" {
		t.Fatalf("rebind sent %v, want the one write to edge-2", out)
	}
	checkMarks(t, "rebind", resendTimes(f, rebind+1, rebind+T, op), rebind, T, op)
	if op.Done {
		t.Fatalf("op settled at the deadline its start set, not the rebind's: %v", op.Err)
	}
	f.c.Tick(rebind + T)
	if !op.Done || !errors.Is(op.Err, ErrUnavailable) {
		t.Fatalf("rebound op: done %v, err %v, want ErrUnavailable", op.Done, op.Err)
	}
}

// BenchmarkTickPendingOps: the cost of one client tick with 1,000 writes
// in flight that the edge has not answered, between their re-send marks:
// the retry pass walks its windows only when the earliest mark is due.
func BenchmarkTickPendingOps(b *testing.B) {
	f := overloadFixture(b, Config{ProofTimeout: 1e15})
	keys, values := make([][]byte, 1000), make([][]byte, 1000)
	for i := range keys {
		keys[i], values[i] = []byte{byte(i >> 8), byte(i)}, []byte("v")
	}
	f.c.PutBatch(0, keys, values)
	now := int64(1)
	f.c.Tick(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1000
		f.c.Tick(now)
	}
	if f.c.Pending() != 1000 || f.c.Stats().Resends != 0 {
		b.Fatalf("pending %d, resends %d: a tick crossed a mark", f.c.Pending(), f.c.Stats().Resends)
	}
}
