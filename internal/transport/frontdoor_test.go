package transport

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"wedgechain/internal/wire"
)

// orderEcho records the arrival order of pings per sender and echoes a
// pong to each — the observer for frame-interleaving assertions.
type orderEcho struct {
	id      wire.NodeID
	mu      sync.Mutex
	perFrom map[wire.NodeID][]uint64
	pongs   map[wire.NodeID]int
}

func newOrderEcho(id wire.NodeID) *orderEcho {
	return &orderEcho{id: id, perFrom: make(map[wire.NodeID][]uint64), pongs: make(map[wire.NodeID]int)}
}

func (e *orderEcho) ID() wire.NodeID { return e.id }
func (e *orderEcho) Receive(now int64, env wire.Envelope) []wire.Envelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch m := env.Msg.(type) {
	case *wire.Ping:
		e.perFrom[env.From] = append(e.perFrom[env.From], m.Seq)
		return []wire.Envelope{{From: e.id, To: env.From, Msg: &wire.Pong{Seq: m.Seq, Ts: m.Ts}}}
	case *wire.Pong:
		e.pongs[env.From]++
	}
	return nil
}
func (e *orderEcho) Tick(now int64) []wire.Envelope { return nil }

// TestSessionMuxInterleavingFIFO hosts three client sessions on one TCP
// endpoint — one socket, one writer-lane pool — and has each stream
// ordered pings at the server concurrently. Responses must route back to
// the correct session by envelope address, and each session's frames must
// arrive in send order: lane hashing is by address, so all three sessions'
// frames serialize FIFO through one lane even under -race scheduling.
func TestSessionMuxInterleavingFIFO(t *testing.T) {
	server := newOrderEcho("server")
	st := NewTCP(server, TCPConfig{Listen: "127.0.0.1:0"})
	if err := st.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Serve(ctx)

	primary := newOrderEcho("c.s0")
	ct := NewTCP(primary, TCPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[wire.NodeID]string{"server": st.Addr().String()},
	})
	if err := ct.Listen(); err != nil {
		t.Fatal(err)
	}
	go ct.Serve(ctx)

	sessions := []*orderEcho{primary, newOrderEcho("c.s1"), newOrderEcho("c.s2")}
	for _, s := range sessions[1:] {
		ct.AddSession(s)
	}
	// Every session identity dials back to the same address: the server's
	// scheduler shares one connection across all three.
	for _, s := range sessions {
		st.SetPeer(s.id, ct.Addr().String())
	}

	const n = 100
	var wg sync.WaitGroup
	for _, s := range sessions {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				seq := uint64(i)
				ct.DoSession(s.id, func(now int64) []wire.Envelope {
					return []wire.Envelope{{From: s.id, To: "server", Msg: &wire.Ping{Seq: seq, Ts: now}}}
				})
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, s := range sessions {
			s.mu.Lock()
			if s.pongs["server"] >= n {
				done++
			}
			s.mu.Unlock()
		}
		if done == len(sessions) {
			break
		}
		if time.Now().After(deadline) {
			for _, s := range sessions {
				s.mu.Lock()
				t.Logf("%s: %d/%d pongs", s.id, s.pongs["server"], n)
				s.mu.Unlock()
			}
			t.Fatal("not every session's pongs arrived over the shared connection")
		}
		time.Sleep(5 * time.Millisecond)
	}

	server.mu.Lock()
	defer server.mu.Unlock()
	for _, s := range sessions {
		seqs := server.perFrom[s.id]
		if len(seqs) != n {
			t.Fatalf("server saw %d pings from %s, want %d", len(seqs), s.id, n)
		}
		for i, seq := range seqs {
			if seq != uint64(i) {
				t.Fatalf("session %s frames reordered: position %d holds seq %d", s.id, i, seq)
			}
		}
	}
}

// TestWriterLaneDropAccounting pins the admission behavior of a full lane:
// with the drain goroutines held off, a depth-1 lane accepts exactly one
// frame and sheds the rest into Stats.LaneDrops — never blocking the
// caller. Unknown peers are shed separately into NoAddrDrops.
func TestWriterLaneDropAccounting(t *testing.T) {
	h := newOrderEcho("a")
	tr := NewTCP(h, TCPConfig{
		Listen:    "127.0.0.1:0",
		Peers:     map[wire.NodeID]string{"b": "127.0.0.1:1"},
		Lanes:     1,
		LaneDepth: 1,
	})
	// Hold the lane workers off so the queue never drains: the drop path
	// is then deterministic.
	tr.laneOnce.Do(func() {})

	for i := 0; i < 3; i++ {
		tr.send(wire.Envelope{From: "a", To: "b", Msg: &wire.Ping{Seq: uint64(i)}})
	}
	tr.send(wire.Envelope{From: "a", To: "nobody", Msg: &wire.Ping{Seq: 9}})

	st := tr.Stats()
	if st.LaneDrops != 2 {
		t.Fatalf("LaneDrops = %d, want 2 (depth-1 lane, 3 frames)", st.LaneDrops)
	}
	if st.NoAddrDrops != 1 {
		t.Fatalf("NoAddrDrops = %d, want 1", st.NoAddrDrops)
	}
	if st.FramesSent != 0 {
		t.Fatalf("FramesSent = %d, want 0 (lanes never ran)", st.FramesSent)
	}
}

// TestLaneOfStability pins the scheduler's routing invariant: a peer
// address always hashes to the same lane (per-peer FIFO), and identities
// sharing an address share the lane (and therefore its one connection).
func TestLaneOfStability(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, addr := range []string{"10.0.0.1:9002", "edge.example:9002", ""} {
			a, b := laneOf(addr, n), laneOf(addr, n)
			if a != b {
				t.Fatalf("laneOf(%q, %d) unstable: %d vs %d", addr, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("laneOf(%q, %d) = %d out of range", addr, n, a)
			}
		}
	}
}

// TestTransportGoroutineHygiene is the leak check CI runs by name: it
// counts goroutines, runs a full TCP exchange (listener, reader, tick
// loop, writer lanes, connection monitors — everything the endpoint
// spawns), shuts both endpoints down, and requires the count to settle
// back to its starting point. A leaked lane or monitor goroutine fails
// the budget.
func TestTransportGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	server := newOrderEcho("server")
	st := NewTCP(server, TCPConfig{Listen: "127.0.0.1:0"})
	if err := st.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 2)
	go func() { st.Serve(ctx); served <- struct{}{} }()

	client := newOrderEcho("client")
	ct := NewTCP(client, TCPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[wire.NodeID]string{"server": st.Addr().String()},
	})
	if err := ct.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() { ct.Serve(ctx); served <- struct{}{} }()
	extra := newOrderEcho("client.s2")
	ct.AddSession(extra)
	st.SetPeer("client", ct.Addr().String())
	st.SetPeer("client.s2", ct.Addr().String())

	const n = 50
	for _, from := range []wire.NodeID{"client", "client.s2"} {
		from := from
		for i := 0; i < n; i++ {
			seq := uint64(i)
			ct.DoSession(from, func(now int64) []wire.Envelope {
				return []wire.Envelope{{From: from, To: "server", Msg: &wire.Ping{Seq: seq, Ts: now}}}
			})
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		client.mu.Lock()
		cp := client.pongs["server"]
		client.mu.Unlock()
		extra.mu.Lock()
		ep := extra.pongs["server"]
		extra.mu.Unlock()
		if cp >= n && ep >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never completed: %d+%d/%d pongs", cp, ep, 2*n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	<-served
	<-served

	// Lanes, monitors, readers and tick loops unwind asynchronously after
	// Serve returns; poll until the goroutine count settles.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
