package transport

import (
	"bytes"
	"context"

	"sync"
	"testing"
	"time"

	"wedgechain/internal/wire"
)

// echoHandler counts deliveries and echoes pings.
type echoHandler struct {
	id    wire.NodeID
	mu    sync.Mutex
	seen  map[uint64]int
	pongs int
}

func newEcho(id wire.NodeID) *echoHandler {
	return &echoHandler{id: id, seen: make(map[uint64]int)}
}

func (e *echoHandler) ID() wire.NodeID { return e.id }
func (e *echoHandler) Receive(now int64, env wire.Envelope) []wire.Envelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch m := env.Msg.(type) {
	case *wire.Ping:
		e.seen[m.Seq]++
		return []wire.Envelope{{From: e.id, To: env.From, Msg: &wire.Pong{Seq: m.Seq, Ts: m.Ts}}}
	case *wire.Pong:
		e.pongs++
	}
	return nil
}
func (e *echoHandler) Tick(now int64) []wire.Envelope { return nil }

func (e *echoHandler) counts() (dups, total, pongs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, n := range e.seen {
		total++
		if n > 1 {
			dups++
		}
	}
	return dups, total, e.pongs
}

func TestTCPDeliversExactlyOnce(t *testing.T) {
	server := newEcho("server")
	client := newEcho("client")

	st := NewTCP(server, TCPConfig{Listen: "127.0.0.1:0"})
	if err := st.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Serve(ctx)

	ct := NewTCP(client, TCPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[wire.NodeID]string{"server": st.Addr().String()},
	})
	if err := ct.Listen(); err != nil {
		t.Fatal(err)
	}
	go ct.Serve(ctx)
	// Server replies over a fresh dial back to the client.
	st.SetPeer("client", ct.Addr().String())

	const n = 200
	for i := 0; i < n; i++ {
		ct.Do(func(now int64) []wire.Envelope {
			return []wire.Envelope{{From: "client", To: "server", Msg: &wire.Ping{Seq: uint64(i), Ts: now}}}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, total, pongs := server.counts()
		_ = total
		if pongs == 0 { // server doesn't receive pongs
		}
		_, _, clientPongs := client.counts()
		if clientPongs >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d pongs arrived", clientPongs, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	dups, total, _ := server.counts()
	if total != n {
		t.Fatalf("server saw %d distinct pings, want %d", total, n)
	}
	if dups != 0 {
		t.Fatalf("%d pings delivered more than once", dups)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env := wire.Envelope{From: "a", To: "b", Msg: &wire.Ping{Seq: 7, Ts: 9}}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.To != "b" {
		t.Fatalf("routing lost: %+v", got)
	}
	if p, ok := got.Msg.(*wire.Ping); !ok || p.Seq != 7 {
		t.Fatalf("payload lost: %+v", got.Msg)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestRedialResendsAfterPeerRestart is the regression test for the
// redial frame-loss bug: when a peer restarts on the same identity and
// address, the sender's cached connection is dead. A write into that
// socket used to "succeed" locally and lose the frame (no error until a
// later write), so the first frame to the restarted peer vanished. The
// fix pairs a read-side dead-connection monitor (redial BEFORE writing
// once the old incarnation's close arrives) with a one-shot
// resend-after-redial for writes that do fail.
//
// The test kills and relaunches the peer, then sends a single ping
// through what was the stale connection and requires its pong — the
// strongest form of the guarantee. Without the fix the ping is lost and
// no response ever arrives.
func TestRedialResendsAfterPeerRestart(t *testing.T) {
	client := newEcho("client")
	ct := NewTCP(client, TCPConfig{Listen: "127.0.0.1:0"})
	if err := ct.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ct.Serve(ctx)

	server1 := newEcho("server")
	st1 := NewTCP(server1, TCPConfig{Listen: "127.0.0.1:0"})
	if err := st1.Listen(); err != nil {
		t.Fatal(err)
	}
	addr := st1.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	served1 := make(chan struct{})
	go func() { st1.Serve(ctx1); close(served1) }()
	st1.SetPeer("client", ct.Addr().String())
	ct.SetPeer("server", addr)

	ping := func(seq uint64) {
		ct.Do(func(now int64) []wire.Envelope {
			return []wire.Envelope{{From: "client", To: "server", Msg: &wire.Ping{Seq: seq, Ts: now}}}
		})
	}
	waitPongs := func(want int, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, _, pongs := client.counts(); pongs >= want {
				return
			}
			if time.Now().After(deadline) {
				_, _, pongs := client.counts()
				t.Fatalf("%s: %d/%d pongs", what, pongs, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Establish the client's cached connection to the first incarnation.
	ping(1)
	waitPongs(1, "before restart")

	// Kill the first incarnation. Serve's exit closes its accepted
	// connections — the teardown a process death produces.
	cancel1()
	<-served1

	// Restart the peer on the same identity and address.
	server2 := newEcho("server")
	st2 := NewTCP(server2, TCPConfig{Listen: addr})
	var err error
	for deadline := time.Now().Add(2 * time.Second); ; {
		if err = st2.Listen(); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go st2.Serve(ctx)
	st2.SetPeer("client", ct.Addr().String())

	// Let the old incarnation's close reach the client's monitor, then
	// send a single ping: the writer must notice the dead connection,
	// redial the new incarnation, and deliver this very frame.
	time.Sleep(100 * time.Millisecond)
	ping(2)
	waitPongs(2, "after restart")
}
