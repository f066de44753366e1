package sim

import (
	"testing"

	"wedgechain/internal/wire"
)

// recorder logs arrival times of pings and optionally echoes.
type recorder struct {
	id       wire.NodeID
	arrivals []int64
	echo     bool
}

func (r *recorder) ID() wire.NodeID { return r.id }
func (r *recorder) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if _, ok := env.Msg.(*wire.Ping); ok {
		r.arrivals = append(r.arrivals, now)
		if r.echo {
			return []wire.Envelope{{From: r.id, To: env.From, Msg: &wire.Pong{}}}
		}
	}
	return nil
}
func (r *recorder) Tick(now int64) []wire.Envelope { return nil }

func ping(from, to wire.NodeID) wire.Envelope {
	return wire.Envelope{From: from, To: to, Msg: &wire.Ping{}}
}

func TestLatencyApplied(t *testing.T) {
	dst := &recorder{id: "b"}
	s := New(Config{
		Links: map[[2]wire.NodeID]Link{{"a", "b"}: {Latency: 1e6}},
	})
	s.Add(&recorder{id: "a"})
	s.Add(dst)
	s.Inject([]wire.Envelope{ping("a", "b")})
	s.RunUntil(10e6)
	if len(dst.arrivals) != 1 || dst.arrivals[0] != 1e6 {
		t.Fatalf("arrivals = %v, want [1000000]", dst.arrivals)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two messages share a 1 KB/s link: the second waits for the first's
	// transmission to finish.
	dst := &recorder{id: "b"}
	s := New(Config{
		Links: map[[2]wire.NodeID]Link{{"a", "b"}: {Latency: 0, Bandwidth: 1000}},
	})
	s.Add(&recorder{id: "a"})
	s.Add(dst)
	size := int64(wire.EncodedSize(ping("a", "b")))
	txNs := size * 1e9 / 1000
	s.Inject([]wire.Envelope{ping("a", "b"), ping("a", "b")})
	s.RunUntil(10e9)
	if len(dst.arrivals) != 2 {
		t.Fatalf("arrivals = %v", dst.arrivals)
	}
	if dst.arrivals[0] != txNs {
		t.Fatalf("first arrival %d, want %d", dst.arrivals[0], txNs)
	}
	if dst.arrivals[1] != 2*txNs {
		t.Fatalf("second arrival %d, want %d (serialized)", dst.arrivals[1], 2*txNs)
	}
}

func TestServiceCostQueues(t *testing.T) {
	// Node b takes 5ms per message; two simultaneous arrivals must be
	// served FIFO, the second's outputs leaving at 10ms.
	done := &recorder{id: "c"}
	s := New(Config{
		Cost: func(node wire.NodeID, in wire.Envelope, outs []wire.Envelope) int64 {
			if node == "b" {
				return 5e6
			}
			return 0
		},
	})
	relay := &relayNode{id: "b", to: "c"}
	s.Add(relay)
	s.Add(done)
	s.Add(&recorder{id: "a"})
	s.Inject([]wire.Envelope{ping("a", "b"), ping("a", "b")})
	s.RunUntil(1e9)
	if len(done.arrivals) != 2 {
		t.Fatalf("arrivals = %v", done.arrivals)
	}
	if done.arrivals[0] != 5e6 || done.arrivals[1] != 10e6 {
		t.Fatalf("arrivals = %v, want [5ms 10ms]", done.arrivals)
	}
}

type relayNode struct {
	id, to wire.NodeID
}

func (r *relayNode) ID() wire.NodeID { return r.id }
func (r *relayNode) Receive(now int64, env wire.Envelope) []wire.Envelope {
	return []wire.Envelope{{From: r.id, To: r.to, Msg: env.Msg}}
}
func (r *relayNode) Tick(now int64) []wire.Envelope { return nil }

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		dst := &recorder{id: "b"}
		s := New(Config{
			DefaultLink: Link{Latency: 3e6, Bandwidth: 1e6},
		})
		s.Add(&recorder{id: "a"})
		s.Add(dst)
		for i := 0; i < 50; i++ {
			s.Inject([]wire.Envelope{ping("a", "b")})
			s.RunUntil(s.Now() + 1e5)
		}
		s.RunUntil(1e9)
		return dst.arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTickStream(t *testing.T) {
	tk := &tickCounter{id: "a"}
	s := New(Config{TickEvery: 1e6})
	s.Add(tk)
	s.RunUntil(10e6)
	if tk.count < 9 || tk.count > 11 {
		t.Fatalf("ticks = %d, want ~10", tk.count)
	}
}

type tickCounter struct {
	id    wire.NodeID
	count int
}

func (c *tickCounter) ID() wire.NodeID { return c.id }
func (c *tickCounter) Receive(now int64, env wire.Envelope) []wire.Envelope {
	return nil
}
func (c *tickCounter) Tick(now int64) []wire.Envelope {
	c.count++
	return nil
}

func TestRunWhile(t *testing.T) {
	dst := &recorder{id: "b", echo: true}
	src := &recorder{id: "a"}
	s := New(Config{DefaultLink: Link{Latency: 2e6}})
	s.Add(src)
	s.Add(dst)
	s.Inject([]wire.Envelope{ping("a", "b")})
	ok := s.RunWhile(func() bool { return len(dst.arrivals) == 0 }, 1e9)
	if !ok {
		t.Fatal("RunWhile hit limit")
	}
	if s.Now() != 2e6 {
		t.Fatalf("Now = %d, want 2ms", s.Now())
	}
	// Condition never satisfied -> limit.
	if ok := s.RunWhile(func() bool { return true }, 5e6); ok {
		t.Fatal("RunWhile claimed success at limit")
	}
}

func TestMessageToUnknownNodeDropped(t *testing.T) {
	s := New(Config{})
	s.Add(&recorder{id: "a"})
	s.Inject([]wire.Envelope{ping("a", "ghost")})
	s.RunUntil(1e7) // must not panic
}

func TestStatsAccounting(t *testing.T) {
	dst := &recorder{id: "b"}
	s := New(Config{})
	s.Add(&recorder{id: "a"})
	s.Add(dst)
	s.Inject([]wire.Envelope{ping("a", "b"), ping("a", "b")})
	s.RunUntil(1e7)
	st := s.Stats()
	if st.Messages != 2 {
		t.Fatalf("Messages = %d", st.Messages)
	}
	if st.LinkBytes[[2]wire.NodeID{"a", "b"}] == 0 {
		t.Fatal("link bytes not recorded")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s := New(Config{})
	s.Add(&recorder{id: "a"})
	s.Add(&recorder{id: "a"})
}
