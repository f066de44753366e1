package wedgechain

import (
	"fmt"
	"testing"
	"time"
)

// TestFacadeLightForcedSampleConvicts is the light-client conviction
// guarantee with the sample forced to hit: Sample 1 audits every
// response, so the lying edge's falsely-excluding summary fails full
// verification on the first read and the signed response convicts it at
// the cloud — the same detect-and-punish outcome a heavyweight client
// gets, through the light-client code path.
func TestFacadeLightForcedSampleConvicts(t *testing.T) {
	victim := []byte("pk-victim")
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 2, L0Threshold: 1000,
		EdgeFaults: map[NodeID]*Fault{EdgeID(1): {SliceFalseExclude: victim}},
	})
	cl, err := c.NewClientWith("c1", EdgeID(1), ClientOptions{Light: true, Sample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(victim, []byte("precious")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := cl.Put([]byte("pk-other"), []byte("w")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, _, _, err := cl.Get(victim); err == nil {
		t.Fatal("light client with forced sampling accepted a falsely excluded key")
	}
	t.Logf("convicted: %s", waitPunished(t, c, EdgeID(1)))
}

// TestFacadeLightClientSkipsAndStaysCorrect drives the light fast path
// end to end: once the cloud's certified frontier has gossiped in, a
// reader sampling at 1/2^20 skips structural verification on essentially
// every read — and an honest edge's answers remain correct.
func TestFacadeLightClientSkipsAndStaysCorrect(t *testing.T) {
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 2, L0Threshold: 1000,
		GossipEvery: 20 * time.Millisecond,
	})
	writer, err := c.NewClient("w1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := writer.Put([]byte(fmt.Sprintf("lk-%03d", i)), []byte(fmt.Sprintf("lv-%03d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	reader, err := c.NewClientWith("r1", EdgeID(1), ClientOptions{Light: true, Sample: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// Reads before the first gossip arrives fall back to full
	// verification; keep reading until the frontier lands and the skip
	// counter moves.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < n; i++ {
			v, found, _, err := reader.Get([]byte(fmt.Sprintf("lk-%03d", i)))
			if err != nil || !found || string(v) != fmt.Sprintf("lv-%03d", i) {
				t.Fatalf("light get %d: v=%q found=%v err=%v", i, v, found, err)
			}
		}
		var skips uint64
		byEdge, err := reader.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range byEdge {
			skips += cs.SampledSkips
		}
		if skips > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("light reader never skipped a verification: gossip frontier missing?")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFacadeSessionHubMux hosts several clients behind one SessionHub —
// one transport endpoint, one goroutine — and runs each through a full
// certified write and verified read.
func TestFacadeSessionHubMux(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2, L0Threshold: 1000})
	hub, err := c.NewSessionHub("hub-1")
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	clients := make([]*Client, k)
	for i := range clients {
		cl, err := c.NewClientWith(fmt.Sprintf("h%d", i), EdgeID(1), ClientOptions{Hub: hub})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients[i] = cl
	}
	receipts := make([]*Receipt, k)
	for i, cl := range clients {
		r, err := cl.Put([]byte(fmt.Sprintf("hk-%d", i)), []byte(fmt.Sprintf("hv-%d", i)))
		if err != nil {
			t.Fatalf("hub put %d: %v", i, err)
		}
		receipts[i] = r
	}
	for i, r := range receipts {
		if err := r.WaitPhaseII(10 * time.Second); err != nil {
			t.Fatalf("hub session %d never certified: %v", i, err)
		}
	}
	// Cross-read: every session verifies every other session's write
	// through the shared endpoint.
	for i, cl := range clients {
		j := (i + 1) % k
		v, found, _, err := cl.Get([]byte(fmt.Sprintf("hk-%d", j)))
		if err != nil || !found || string(v) != fmt.Sprintf("hv-%d", j) {
			t.Fatalf("hub cross-get %d->%d: v=%q found=%v err=%v", i, j, v, found, err)
		}
	}
}
