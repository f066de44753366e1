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
		if err := wcrypto.VerifyMsg(f.reg, "c1", &e, e.Sig); err != nil {
			t.Fatalf("%s: re-sent entry not signed for its position: %v", how, err)
		}
	}
	check("retry", f.c.Tick(10_000))

	f.keys["edge-2"] = wcrypto.DeterministicKey("edge-2")
	f.reg.Register("edge-2", f.keys["edge-2"].Pub)
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
