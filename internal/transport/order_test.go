package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wire"
)

// stamper numbers every frame it emits to sink — one per Receive and one
// per Tick — so the sink can check that frames leave in the order the
// node's turns produced them. The endpoint's session mutex is its only
// guard.
type stamper struct {
	id, sink wire.NodeID
	next     uint64
}

func (s *stamper) ID() wire.NodeID { return s.id }
func (s *stamper) Receive(int64, wire.Envelope) []wire.Envelope {
	return s.emit()
}
func (s *stamper) Tick(int64) []wire.Envelope { return s.emit() }
func (s *stamper) emit() []wire.Envelope {
	s.next++
	return []wire.Envelope{{From: s.id, To: s.sink, Msg: &wire.Ping{Seq: s.next}}}
}

// orderSink records the sequence numbers of the pings it receives, in
// arrival order.
type orderSink struct {
	id   wire.NodeID
	mu   sync.Mutex
	seqs []uint64
}

func (o *orderSink) ID() wire.NodeID { return o.id }
func (o *orderSink) Receive(_ int64, env wire.Envelope) []wire.Envelope {
	if p, ok := env.Msg.(*wire.Ping); ok {
		o.mu.Lock()
		o.seqs = append(o.seqs, p.Seq)
		o.mu.Unlock()
	}
	return nil
}
func (o *orderSink) Tick(int64) []wire.Envelope { return nil }

// awaitInOrder waits until the sink holds want pings and fails unless they
// arrived in the order they were numbered.
func (o *orderSink) awaitInOrder(t *testing.T, want func() uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		o.mu.Lock()
		got := append([]uint64(nil), o.seqs...)
		o.mu.Unlock()
		if n := want(); uint64(len(got)) >= n && n > 0 {
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("frame %d arrived after frame %d (position %d of %d)", got[i], got[i-1], i, len(got))
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink holds %d of %d frames", len(got), want())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveEndpoint starts h on a loopback endpoint until ctx ends.
func serveEndpoint(t *testing.T, ctx context.Context, h core.Handler, cfg TCPConfig) *TCP {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	ep := NewTCP(h, cfg)
	if err := ep.Listen(); err != nil {
		t.Fatal(err)
	}
	go ep.Serve(ctx)
	return ep
}

// TestSessionOutputKeepsTurnOrder: a node fed by several peers at once,
// and ticking meanwhile, has its frames written in the order its turns
// emitted them — a turn hands its outputs to the writer lanes before the
// next turn starts.
func TestSessionOutputKeepsTurnOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &orderSink{id: "sink"}
	st := &stamper{id: "node", sink: "sink"}
	sinkEP := serveEndpoint(t, ctx, sink, TCPConfig{})
	nodeEP := serveEndpoint(t, ctx, st, TCPConfig{TickEvery: time.Millisecond})
	nodeEP.SetPeer("sink", sinkEP.Addr().String())

	const feeders, each = 4, 500
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		id := wire.NodeID(fmt.Sprintf("feeder-%d", f))
		ep := serveEndpoint(t, ctx, &orderSink{id: id}, TCPConfig{})
		ep.SetPeer("node", nodeEP.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ep.Do(func(int64) []wire.Envelope {
					return []wire.Envelope{{From: id, To: "node", Msg: &wire.Ping{Seq: uint64(i)}}}
				})
			}
		}()
	}
	wg.Wait()
	// Every feed reached the node once its count passes them all; ticks
	// keep adding frames meanwhile, so the target is read under the
	// node's own mutex.
	emitted := func() (n uint64) {
		nodeEP.Do(func(int64) []wire.Envelope { n = st.next; return nil })
		if n < feeders*each {
			return 0
		}
		return n
	}
	sink.awaitInOrder(t, emitted)
}

// TestConstantDelayKeepsOrder: a constant injected link delay shifts a
// node's frames without reordering them; only a delay range or a
// duplicate reorders.
func TestConstantDelayKeepsOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &orderSink{id: "sink"}
	st := &stamper{id: "node", sink: "sink"}
	fault := faultnet.New(1)
	const delay = int64(2 * time.Millisecond)
	fault.Add(faultnet.Rule{From: "node", To: "sink", Faults: faultnet.LinkFaults{DelayMin: delay, DelayMax: delay}})
	sinkEP := serveEndpoint(t, ctx, sink, TCPConfig{})
	nodeEP := serveEndpoint(t, ctx, st, TCPConfig{TickEvery: time.Hour, Fault: fault})
	nodeEP.SetPeer("sink", sinkEP.Addr().String())

	const frames = 2000
	for i := 0; i < frames; i++ {
		nodeEP.Do(func(int64) []wire.Envelope { return st.emit() })
	}
	sink.awaitInOrder(t, func() uint64 { return frames })
}

// slowSink holds each delivery until release is closed.
type slowSink struct {
	id               wire.NodeID
	entered, release chan struct{}
	done             bool
}

func (s *slowSink) ID() wire.NodeID { return s.id }
func (s *slowSink) Receive(int64, wire.Envelope) []wire.Envelope {
	close(s.entered)
	<-s.release
	s.done = true
	return nil
}
func (s *slowSink) Tick(int64) []wire.Envelope { return nil }

// TestServeWaitsForRunningTurn: Serve returns only after the delivery it
// was running when its context ended has finished, so whatever the
// handler records lands before the caller reads it.
func TestServeWaitsForRunningTurn(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &slowSink{id: "sink", entered: make(chan struct{}), release: make(chan struct{})}
	ep := NewTCP(sink, TCPConfig{Listen: "127.0.0.1:0"})
	if err := ep.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { ep.Serve(ctx); close(served) }()
	sender := serveEndpoint(t, ctx, &orderSink{id: "sender"}, TCPConfig{})
	sender.SetPeer("sink", ep.Addr().String())
	sender.Do(func(int64) []wire.Envelope {
		return []wire.Envelope{{From: "sender", To: "sink", Msg: &wire.Ping{Seq: 1}}}
	})
	<-sink.entered
	cancel()
	select {
	case <-served:
		t.Fatal("Serve returned while a delivery was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(sink.release)
	<-served
	if !sink.done {
		t.Fatal("delivery not finished when Serve returned")
	}
}
