package wedgechain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFacadeShedLosesNoAckedWrite is admission control end to end: 16
// sessions hammer an edge whose uncertified backlog is capped at two blocks
// while certification crawls over a 5 ms cloud link, held for its first
// 300 ms. The edge sheds with
// signed overload signals; the sessions pace their re-sends by them and
// surface ErrOverloaded once those run out, and the writers retry. Every
// write the edge did acknowledge must still reach Phase II, and nobody is
// convicted — shedding may reject, never lose.
func TestFacadeShedLosesNoAckedWrite(t *testing.T) {
	wan := NewChaos(1)
	c := newTestCluster(t, Config{
		Edges: 1, BatchSize: 1, FlushEvery: time.Millisecond,
		MaxUncertified: 2, ProofTimeout: time.Second,
		Chaos: wan,
	})
	const writers, perWriter = 16, 8
	clients := make([]*Client, writers)
	for i := range clients {
		var err error
		if clients[i], err = c.NewClient(fmt.Sprintf("w%d", i), EdgeID(1)); err != nil {
			t.Fatal(err)
		}
	}
	// The edge's frames to the cloud are held for the writers' first
	// 300 ms, so the backlog passes the cap however fast the edge
	// certifies; the first matching rule applies.
	now, hold := time.Now().UnixNano(), int64(300*time.Millisecond)
	wan.Add(ChaosRule{From: EdgeID(1), To: CloudID, FromT: now, ToT: now + hold, Faults: LinkFaults{DelayMin: hold, DelayMax: hold}})
	delay := LinkFaults{DelayMin: int64(5 * time.Millisecond), DelayMax: int64(5 * time.Millisecond)}
	wan.Add(ChaosRule{From: CloudID, Faults: delay})
	wan.Add(ChaosRule{To: CloudID, Faults: delay})
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
