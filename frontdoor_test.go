package wedgechain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// TestFacadeShedLosesNoAckedWrite is admission control end to end: 16
// sessions hammer an edge whose uncertified backlog is capped at two blocks
// while certification crawls over a 5 ms cloud link. The edge sheds with
// signed overload signals; the sessions pace their re-sends by them and
// surface ErrOverloaded once those run out, and the writers retry. Every
// write the edge did acknowledge must still reach Phase II, and nobody is
// convicted — shedding may reject, never lose.
func TestFacadeShedLosesNoAckedWrite(t *testing.T) {
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 1, FlushEvery: time.Millisecond,
		MaxUncertified: 2, RetryEvery: 20 * time.Millisecond, MaxAttempts: 6,
		Chaos: cloudDelay(5 * time.Millisecond),
	})
	const writers, perWriter = 16, 8
	clients := make([]*Client, writers)
	for i := range clients {
		var err error
		if clients[i], err = c.NewClient(fmt.Sprintf("w%d", i), EdgeID(1)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var acked []*Receipt
	var overloaded, unavailable atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("shed-%d-%d", w, i))
				for attempt := 0; ; attempt++ {
					rc, err := clients[w].Put(key, key)
					if err == nil {
						mu.Lock()
						acked = append(acked, rc)
						mu.Unlock()
						break
					}
					switch {
					case attempt == 20:
						errs <- fmt.Errorf("writer %d put %d still shed after %d tries: %w", w, i, attempt+1, err)
						return
					case errors.Is(err, ErrOverloaded):
						overloaded.Add(1)
					case errors.Is(err, ErrUnavailable):
						unavailable.Add(1)
					default:
						errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
						return
					}
					time.Sleep(25 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if overloaded.Load() == 0 {
		t.Fatal("no write failed with ErrOverloaded: admission control never engaged")
	}
	for i, rc := range acked {
		if err := rc.WaitPhaseII(30 * time.Second); err != nil {
			t.Fatalf("acked write %d never certified: %v", i, err)
		}
	}
	if v := c.Verdicts(); len(v) != 0 {
		t.Fatalf("verdicts under shedding: %+v", v)
	}
	t.Logf("%d writes acked and certified; %d ErrOverloaded, %d ErrUnavailable",
		len(acked), overloaded.Load(), unavailable.Load())
}
