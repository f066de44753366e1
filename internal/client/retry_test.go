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
	f := overloadFixture(t, Config{RetryEvery: 100, MaxAttempts: 5})
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
	f := overloadFixture(t, Config{RetryEvery: 100, MaxAttempts: 5})
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

// TestUnansweredOpSettlesWithoutRetry: with retry off, a write or a get
// the edge never answers settles with ErrUnavailable once the proof
// timeout has passed since it started, instead of pending forever.
func TestUnansweredOpSettlesWithoutRetry(t *testing.T) {
	f := overloadFixture(t, Config{ProofTimeout: 1000})
	put, _ := f.c.Put(10, []byte("k"), []byte("v"))
	get, _ := f.c.Get(10, []byte("k"))
	f.c.Tick(1009)
	if put.Done || get.Done || f.c.Pending() != 2 {
		t.Fatalf("settled before the proof timeout: put %v, get %v", put.Err, get.Err)
	}
	for now := int64(1010); now <= 1e12; now *= 10 {
		f.c.Tick(now)
	}
	for _, op := range []*Op{put, get} {
		if !op.Done || !errors.Is(op.Err, ErrUnavailable) {
			t.Fatalf("%v op: done %v, err %v, want ErrUnavailable", op.Kind, op.Done, op.Err)
		}
	}
	if n := f.c.Pending(); n != 0 {
		t.Fatalf("Pending() = %d, want 0", n)
	}
}
