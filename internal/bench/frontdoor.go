package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	wedge "wedgechain"
	"wedgechain/internal/workload"
)

// FrontDoor (C1) measures the million-session front door — wall-clock over
// the façade's real concurrent transport. Arm one is the per-goroutine
// baseline: every session owns a transport goroutine, the pre-refactor
// shape. Arm two multiplexes 10-25x as many sessions over a handful of
// session hubs: goroutine growth must stay flat (hubs, not sessions) while
// every session still commits its write. Arm three drives writers into an
// edge with a tiny uncertified cap over a slow cloud link: admission
// control sheds load with signed overload signals, and the invariant is
// that every write the edge *acked* still certifies — shedding loses
// nothing that was promised. Arms four and five compare a full-verification
// reader against a light client (1-in-16 sampled audits) over a Zipf key
// population: same verified-or-convicted guarantee in expectation, with the
// structural verification CPU paid only on the sample.
func FrontDoor(scale Scale) *Table {
	t := &Table{
		ID:     "C1",
		Title:  "Front door: session multiplexing, admission control, light-client sampling (wall-clock)",
		Header: []string{"Scenario", "Sessions", "Goroutines+", "Ops", "ops/s", "FullVerify", "Skips", "VerifyMs", "Shed", "Lost"},
	}
	base := scale.rounds(400)
	mux := base * 25
	shedWrites := scale.rounds(240)
	gets := scale.rounds(2000)
	preload := scale.preload(2000)

	type arm struct {
		name string
		run  func() ([]string, error)
	}
	for _, a := range []arm{
		{"goroutine per session", func() ([]string, error) { return runSessionArm(base, 0) }},
		{"hub mux 25x sessions", func() ([]string, error) { return runSessionArm(mux, 8) }},
		{"admission control shed", func() ([]string, error) { return runShedArm(shedWrites) }},
		{"full-verify reader", func() ([]string, error) { return runGetArm(false, gets, preload) }},
		{"light reader (1/16)", func() ([]string, error) { return runGetArm(true, gets, preload) }},
	} {
		row, err := a.run()
		if err != nil {
			t.failRow(a.name, err)
			continue
		}
		t.Rows = append(t.Rows, append([]string{a.name}, row...))
	}
	t.Notes = append(t.Notes,
		"Goroutines+ is runtime.NumGoroutine growth from creating the sessions: ~1 per session in the baseline, ~hub count under the mux",
		"shed arm: MaxUncertified=2 over a 5ms cloud link; Shed counts signed overload rejections, Lost counts acked writes that failed to certify (invariant: 0)",
		"reader arms serve the same Zipf(1.1) key population; VerifyMs is wall-clock spent inside structural get verification (client Stats.VerifyNanos)",
		"light reader trusts the gossiped certified frontier and fully verifies a seeded 1-in-16 sample; a sampled lie convicts exactly as in full mode",
	)
	return t
}

// runSessionArm creates `sessions` client sessions — each with its own
// transport goroutine when hubs == 0, multiplexed over `hubs` session hubs
// otherwise — and commits one put per session through a bounded worker
// pool.
func runSessionArm(sessions, hubs int) ([]string, error) {
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:      1,
		BatchSize:  100,
		FlushEvery: 2 * time.Millisecond,
		NoGossip:   true,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	var hubPool []*wedge.SessionHub
	for h := 0; h < hubs; h++ {
		hub, err := cluster.NewSessionHub(fmt.Sprintf("c1-hub-%d", h))
		if err != nil {
			return nil, err
		}
		hubPool = append(hubPool, hub)
	}
	gBefore := runtime.NumGoroutine()
	clients := make([]*wedge.Client, sessions)
	for i := range clients {
		name := fmt.Sprintf("c1-s%d", i)
		var opts wedge.ClientOptions
		if hubs > 0 {
			opts.Hub = hubPool[i%hubs]
		}
		if clients[i], err = cluster.NewClientWith(name, "", opts); err != nil {
			return nil, err
		}
	}
	gDelta := runtime.NumGoroutine() - gBefore
	if hubs > 0 && gDelta > sessions/10 {
		return nil, fmt.Errorf("session mux leaked goroutines: %d sessions grew goroutines by %d", sessions, gDelta)
	}

	start := time.Now()
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				key := workload.KeyName(i)
				if _, err := clients[i].Put(key, key); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d session puts failed", n, sessions)
	}
	return []string{
		fmt.Sprint(sessions),
		fmt.Sprint(gDelta),
		fmt.Sprint(sessions),
		f1(float64(sessions) / elapsed.Seconds()),
		"-", "-", "-", "-", "0",
	}, nil
}

// runShedArm hammers an edge whose uncertified backlog is capped at 2
// blocks while certification crawls over an injected 5ms cloud link. The
// edge sheds with signed overload signals; writers absorb them with
// app-level retries. Every write that ever received a Phase I receipt must
// still certify — load shedding may reject, never lose.
func runShedArm(writes int) ([]string, error) {
	cloudID := wedge.NodeID("cloud")
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:          1,
		BatchSize:      1,
		FlushEvery:     time.Millisecond,
		NoGossip:       true,
		MaxUncertified: 2,
		RetryEvery:     20 * time.Millisecond,
		MaxAttempts:    6,
		Latency: func(from, to wedge.NodeID) time.Duration {
			if from == cloudID || to == cloudID {
				return 5 * time.Millisecond
			}
			return 0
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	hub, err := cluster.NewSessionHub("c1-shed-hub")
	if err != nil {
		return nil, err
	}
	const writers = 16
	clients := make([]*wedge.Client, writers)
	for i := range clients {
		if clients[i], err = cluster.NewClientWith(fmt.Sprintf("c1-w%d", i), "", wedge.ClientOptions{Hub: hub}); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	var acked []*wedge.Receipt
	var shed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < writes; i += writers {
				key := workload.KeyName(i)
				for attempt := 0; ; attempt++ {
					rc, err := clients[w].Put(key, key)
					if err == nil {
						mu.Lock()
						acked = append(acked, rc)
						mu.Unlock()
						break
					}
					if !errors.Is(err, wedge.ErrOverloaded) && !errors.Is(err, wedge.ErrUnavailable) {
						errs <- fmt.Errorf("write %d: %w", i, err)
						return
					}
					shed.Add(1)
					if attempt == 19 {
						errs <- fmt.Errorf("write %d still shed after %d app retries", i, attempt+1)
						return
					}
					time.Sleep(25 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	lost := 0
	for _, rc := range acked {
		if err := rc.WaitPhaseII(30 * time.Second); err != nil {
			lost++
		}
	}
	if lost > 0 {
		return nil, fmt.Errorf("%d acked writes never certified", lost)
	}
	return []string{
		fmt.Sprint(writers),
		"-",
		fmt.Sprint(len(acked)),
		f1(float64(len(acked)) / elapsed.Seconds()),
		"-", "-", "-",
		fmt.Sprint(shed.Load()),
		"0",
	}, nil
}

// runGetArm preloads a key population, then serves Zipf-distributed
// verified gets from one reader — full verification or light-client
// sampling — and reports throughput plus the verification CPU actually
// burned.
func runGetArm(light bool, gets, preload int) ([]string, error) {
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:       1,
		BatchSize:   100,
		FlushEvery:  2 * time.Millisecond,
		GossipEvery: 50 * time.Millisecond,
		RetryEvery:  100 * time.Millisecond,
		MaxAttempts: 4,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	loader, err := cluster.NewClient("c1-loader", "")
	if err != nil {
		return nil, err
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= preload {
					return
				}
				key := workload.KeyName(i)
				rc, err := loader.Put(key, key)
				if err == nil {
					err = rc.WaitPhaseII(20 * time.Second)
				}
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d preload puts failed", n, preload)
	}

	reader, err := cluster.NewClientWith("c1-reader", "", wedge.ClientOptions{Light: light, Sample: 16, Seed: 7})
	if err != nil {
		return nil, err
	}
	// Let a gossip round land so the light reader holds a certified
	// frontier; without one it falls back to full verification.
	time.Sleep(200 * time.Millisecond)

	z := workload.NewZipfKeys(preload, 1.1, 99)
	start := time.Now()
	for i := 0; i < gets; i++ {
		_, found, _, err := reader.Get(z.Next())
		if err != nil {
			return nil, fmt.Errorf("get %d: %w", i, err)
		}
		if !found {
			return nil, fmt.Errorf("get %d: preloaded key missing", i)
		}
	}
	elapsed := time.Since(start)

	var full, skips, nanos uint64
	byEdge, err := reader.Stats()
	if err != nil {
		return nil, err
	}
	for _, cs := range byEdge {
		full += cs.FullVerifies
		skips += cs.SampledSkips
		nanos += cs.VerifyNanos
	}
	if light && skips == 0 {
		return nil, fmt.Errorf("light reader never skipped: gossip frontier missing?")
	}
	return []string{
		"1",
		"-",
		fmt.Sprint(gets),
		f1(float64(gets) / elapsed.Seconds()),
		fmt.Sprint(full),
		fmt.Sprint(skips),
		f1(float64(nanos) / 1e6),
		"-", "0",
	}, nil
}
