package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"wedgechain/internal/wire"
)

// TestLaneStorageFollowsFrames: a lane's queue storage exists only while
// frames are queued. A fresh endpoint holds none, a held-off lane holds
// room for what it queued, and a lane that has written everything hands
// its storage back.
func TestLaneStorageFollowsFrames(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &orderSink{id: "sink"}
	sinkEP := serveEndpoint(t, ctx, sink, TCPConfig{})
	tr := NewTCP(newOrderEcho("a"), TCPConfig{
		Peers: map[wire.NodeID]string{"sink": sinkEP.Addr().String()},
		Lanes: 1,
	})
	defer tr.stop1.Do(func() { close(tr.stopc) })
	if n := tr.laneStorage(0); n != 0 {
		t.Fatalf("fresh endpoint holds storage for %d frames", n)
	}
	tr.laneOnce.Do(func() {}) // hold the writer off

	const frames = 100
	for i := 1; i <= frames; i++ {
		tr.send(wire.Envelope{From: "a", To: "sink", Msg: &wire.Ping{Seq: uint64(i)}})
	}
	if n := tr.laneStorage(0); n < frames {
		t.Fatalf("lane holding %d frames has storage for %d", frames, n)
	}

	go tr.laneLoop(tr.lanes[0])
	drained := func(sent uint64) {
		t.Helper()
		sink.awaitInOrder(t, func() uint64 { return sent })
		deadline := time.Now().Add(10 * time.Second)
		for tr.laneStorage(0) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("drained lane still holds storage for %d frames", tr.laneStorage(0))
			}
			time.Sleep(time.Millisecond)
		}
	}
	drained(frames)
	// A lane that gave its storage back takes the next burst as a fresh one.
	for i := frames + 1; i <= 2*frames; i++ {
		tr.send(wire.Envelope{From: "a", To: "sink", Msg: &wire.Ping{Seq: uint64(i)}})
	}
	drained(2 * frames)
	if st := tr.Stats(); st.FramesSent != 2*frames || st.LaneDrops != 0 {
		t.Fatalf("FramesSent=%d LaneDrops=%d, want %d and 0", st.FramesSent, st.LaneDrops, 2*frames)
	}
}

// TestLaneDropsOnlyPastDepth: a burst of LaneDepth+10 frames at a
// held-off lane queues LaneDepth and drops exactly 10, and the frame the
// writer is busy with counts against the bound.
func TestLaneDropsOnlyPastDepth(t *testing.T) {
	const depth = 64
	tr := NewTCP(newOrderEcho("a"), TCPConfig{
		Peers:     map[wire.NodeID]string{"b": "127.0.0.1:1"},
		Lanes:     1,
		LaneDepth: depth,
	})
	tr.laneOnce.Do(func() {})
	for i := 0; i < depth+10; i++ {
		tr.send(wire.Envelope{From: "a", To: "b", Msg: &wire.Ping{Seq: uint64(i)}})
	}
	if st := tr.Stats(); st.LaneDrops != 10 {
		t.Fatalf("LaneDrops = %d after %d frames at a depth-%d lane, want 10", st.LaneDrops, depth+10, depth)
	}

	// The writer holds one frame: the lane then admits one fewer.
	ln := tr.lanes[0]
	if _, ok := ln.pop(); !ok {
		t.Fatal("full lane popped nothing")
	}
	tr.send(wire.Envelope{From: "a", To: "b", Msg: &wire.Ping{Seq: 1000}})
	if st := tr.Stats(); st.LaneDrops != 11 {
		t.Fatalf("LaneDrops = %d with %d queued and one being written, want 11", st.LaneDrops, depth-1)
	}
	if tr.laneStorage(0) == 0 {
		t.Fatal("lane with queued frames holds no storage")
	}
}

// TestUnreachablePeerDropsAreCounted: a frame whose peer refuses the
// connection is lost after the dial fails, and counted as unreachable,
// not as a lane drop.
func TestUnreachablePeerDropsAreCounted(t *testing.T) {
	if c, err := net.DialTimeout("tcp", "127.0.0.1:1", time.Second); err == nil {
		c.Close()
		t.Skip("something listens on 127.0.0.1:1")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := serveEndpoint(t, ctx, newOrderEcho("a"), TCPConfig{
		Peers: map[wire.NodeID]string{"b": "127.0.0.1:1"},
	})
	tr.Do(func(int64) []wire.Envelope {
		return []wire.Envelope{{From: "a", To: "b", Msg: &wire.Ping{Seq: 1}}}
	})
	deadline := time.Now().Add(10 * time.Second)
	for tr.Stats().UnreachableDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the frame to a refusing peer was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if st := tr.Stats(); st.UnreachableDrops != 1 || st.FramesSent != 0 || st.LaneDrops != 0 {
		t.Fatalf("UnreachableDrops=%d FramesSent=%d LaneDrops=%d, want 1, 0, 0", st.UnreachableDrops, st.FramesSent, st.LaneDrops)
	}
}

// BenchmarkLaneQueueCycle guards the lane's steady state: a frame
// queued at an empty lane and written takes pooled storage and returns
// it, allocating nothing.
func BenchmarkLaneQueueCycle(b *testing.B) {
	ln := &writeLane{wake: make(chan struct{}, 1)}
	it := laneItem{to: "b", env: wire.Envelope{From: "a", To: "b", Msg: &wire.Ping{}}}
	cycle := func() {
		ln.push(it, 4096)
		ln.pop()
		ln.pop()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		b.Fatalf("a queue-and-write cycle allocates %v times", n)
	}
}
