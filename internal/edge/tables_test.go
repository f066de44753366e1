package edge

import (
	"fmt"
	"slices"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/wire"
)

// The TestReqRing* and TestBidRing* tests keep their names from the edge's
// own rings, now core.Window (whose model test is internal/core's
// TestWindowMatchesMapModel): they pin what the submitter table (reqs) and
// the proof-waiter table (waiters) lean on.

func TestReqRingSetTakeAdvance(t *testing.T) {
	var r core.Window[wire.NodeID]
	r.Set(0, "c1")
	r.Set(1, "c2")
	if c, ok := r.Take(0); !ok || c != "c1" {
		t.Fatalf("Take(0) = %q %v", c, ok)
	}
	if _, ok := r.Take(0); ok {
		t.Fatal("Take(0) succeeded twice")
	}
	r.Advance(2)
	if _, ok := r.Take(1); ok {
		t.Fatal("Take below the floor succeeded")
	}
	r.Set(2, "c3")
	if c, ok := r.Take(2); !ok || c != "c3" {
		t.Fatalf("Take(2) after Advance = %q %v", c, ok)
	}
}

// TestReqRingGrowsAndWraps drives the submitter table the way block cuts
// do — set per append, take per cut position, advance past the block —
// through several growth and wrap cycles with reservation holes: every
// recorded position comes back exactly once with the right submitter.
func TestReqRingGrowsAndWraps(t *testing.T) {
	var r core.Window[wire.NodeID]
	const blocks, batch = 64, 37 // non-power-of-two batch forces wrap offsets
	pos := uint64(0)
	for b := 0; b < blocks; b++ {
		start := pos
		set := map[uint64]wire.NodeID{}
		for i := 0; i < batch; i++ {
			if i%5 != 4 { // else a hole: an expired reservation, never set
				set[pos] = wire.NodeID(fmt.Sprintf("c%d", pos%7))
				r.Set(pos, set[pos])
			}
			pos++
		}
		for p := start; p < pos; p++ {
			c, ok := r.Take(p)
			if want, wasSet := set[p]; ok != wasSet || c != want {
				t.Fatalf("pos %d: Take = %q %v, want %q %v", p, c, ok, want, wasSet)
			}
		}
		r.Advance(pos)
	}
	if r.Len() != 0 {
		t.Fatalf("%d positions left behind", r.Len())
	}
}

// TestReqRingAdvanceClearsDroppedSlots models a block whose persist failed:
// its positions were set but never taken; advancing past them must clear
// the slots so later positions mapping to the same ring index start clean.
func TestReqRingAdvanceClearsDroppedSlots(t *testing.T) {
	var r core.Window[wire.NodeID]
	for p := uint64(0); p < 64; p++ {
		r.Set(p, "stale")
	}
	r.Advance(64) // drop them all without a Take
	for p := uint64(64); p < 128; p++ {
		if c, ok := r.Take(p); ok {
			t.Fatalf("pos %d: stale slot leaked: %q", p, c)
		}
	}
	r.Set(128, "x")
	r.Advance(640) // far past everything held
	if _, ok := r.Take(128); ok {
		t.Fatal("slot behind a wholesale advance leaked")
	}
	r.Set(641, "y")
	if c, ok := r.Take(641); !ok || c != "y" {
		t.Fatalf("Take after the wholesale advance = %q %v", c, ok)
	}
}

// TestBidRingBasics: a client is told once per block however it came to
// wait — as a writer, a reader, or both, any number of times.
func TestBidRingBasics(t *testing.T) {
	n := newFixture(t, Config{}).node
	n.lead.waiters.Set(3, []wire.NodeID{"a"}) // the cut registers its writers
	n.awaitProof(3, "b")
	n.awaitProof(3, "a")
	n.awaitProof(3, "b")
	n.awaitProof(5, "c")
	if got, _ := n.lead.waiters.Take(3); !slices.Equal(got, []wire.NodeID{"a", "b"}) {
		t.Fatalf("Take(3) = %v", got)
	}
	if got, ok := n.lead.waiters.Take(3); ok {
		t.Fatalf("second Take(3) = %v", got)
	}
	if got, ok := n.lead.waiters.Take(4); ok {
		t.Fatalf("Take of a never-set bid = %v", got)
	}
	if got, _ := n.lead.waiters.Take(5); !slices.Equal(got, []wire.NodeID{"c"}) {
		t.Fatalf("Take(5) = %v", got)
	}
}

func TestBidRingSetAndGrow(t *testing.T) {
	n := newFixture(t, Config{}).node
	for bid := uint64(0); bid < 320; bid++ { // several growth steps
		n.lead.waiters.Set(bid, []wire.NodeID{wire.NodeID(fmt.Sprintf("c%d", bid))})
	}
	for bid := uint64(0); bid < 320; bid++ {
		got, _ := n.lead.waiters.Take(bid)
		if len(got) != 1 || got[0] != wire.NodeID(fmt.Sprintf("c%d", bid)) {
			t.Fatalf("bid %d: Take = %v", bid, got)
		}
	}
}

func TestBidRingAdvance(t *testing.T) {
	n := newFixture(t, Config{}).node
	for bid := uint64(0); bid < 10; bid++ {
		n.awaitProof(bid, "w")
	}
	n.lead.waiters.Advance(7)
	for bid := uint64(0); bid < 7; bid++ {
		if got, ok := n.lead.waiters.Take(bid); ok {
			t.Fatalf("bid %d behind the floor leaked: %v", bid, got)
		}
	}
	// Registrations behind the floor are ignored: certified blocks never
	// register waiters, and a get over a batch-certified window must not
	// resurrect a slot no proof will ever drain.
	n.awaitProof(3, "stale")
	if n.lead.waiters.Len() != 3 {
		t.Fatalf("%d bids waited on, want 7, 8, 9", n.lead.waiters.Len())
	}
	if got, _ := n.lead.waiters.Take(8); len(got) != 1 {
		t.Fatalf("live slot lost across the advance: %v", got)
	}
	n.lead.waiters.Advance(1000)
	if n.lead.waiters.Len() != 0 {
		t.Fatal("slots behind a wholesale advance leaked")
	}
	n.awaitProof(1001, "fresh")
	if got, _ := n.lead.waiters.Take(1001); !slices.Equal(got, []wire.NodeID{"fresh"}) {
		t.Fatalf("registration after the advance = %v", got)
	}
}
