package wedgechain

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// cloudDelay is a WAN: one-way delay d on every link to and from the
// cloud.
func cloudDelay(d time.Duration) *ChaosNet {
	wan := NewChaos(1)
	delay := LinkFaults{DelayMin: int64(d), DelayMax: int64(d)}
	wan.Add(ChaosRule{From: CloudID, Faults: delay})
	wan.Add(ChaosRule{To: CloudID, Faults: delay})
	return wan
}

func TestClusterAddAndPhaseII(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2})
	c1, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.NewClient("c2", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *Receipt, 1)
	go func() {
		r, err := c1.Add([]byte("hello"))
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	r2, err := c2.Add([]byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	r1 := <-done
	if err := r1.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatalf("r1 WaitPhaseII: %v", err)
	}
	if err := r2.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatalf("r2 WaitPhaseII: %v", err)
	}
	if r1.Phase() != PhaseII || r2.Phase() != PhaseII {
		t.Fatalf("phases = %v/%v", r1.Phase(), r2.Phase())
	}
}

func TestClusterFlushCutsPartialBlocks(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 100, FlushEvery: 20 * time.Millisecond})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	// A single add in a batch of 100 commits via the flush timer.
	r, err := cl.Add([]byte("lonely"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPutGetRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2, FlushEvery: 20 * time.Millisecond})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("key-%d", i%4), fmt.Sprintf("val-%d", i)
		want[k] = v
		if _, err := cl.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for k, v := range want {
		got, found, _, err := cl.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if !found || !bytes.Equal(got, []byte(v)) {
			t.Fatalf("get %s = %q found=%v, want %q", k, got, found, v)
		}
	}
	_, found, _, err := cl.Get([]byte("absent"))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("absent key reported found")
	}
}

func TestClusterReadReturnsCommittedBlock(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2, FlushEvery: -1})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Receipt, 1)
	go func() {
		r, err := cl.Add([]byte("a"))
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	if _, err := cl.Add([]byte("b")); err != nil {
		t.Fatal(err)
	}
	r1 := <-done
	if err := r1.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	blk, phase, err := cl.Read(r1.BID(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if phase != PhaseII {
		t.Fatalf("read phase = %v", phase)
	}
	if blk == nil || len(blk.Entries) != 2 {
		t.Fatalf("block = %+v", blk)
	}
}

func TestClusterDetectsTamperingEdge(t *testing.T) {
	c := newTestCluster(t, Config{
		Edges:        1,
		BatchSize:    2,
		ProofTimeout: 200 * time.Millisecond,
		EdgeFaults: map[NodeID]*Fault{
			EdgeID(1): {TamperAddVictim: "victim"},
		},
	})
	victim, err := c.NewClient("victim", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.NewClient("other", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		r, err := victim.Add([]byte("precious"))
		if err != nil {
			errCh <- err
			return
		}
		errCh <- r.WaitPhaseII(15 * time.Second)
	}()
	// The bystander's entry shares the guilty block. Its Phase I ack and
	// the guilty verdict travel on different connections, and a verdict
	// that arrives first fails the op with ErrEdgeBanned, as documented.
	if _, err := other.Add([]byte("bystander")); err != nil && !errors.Is(err, ErrEdgeBanned) {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrEdgeLied) {
		t.Fatalf("victim err = %v, want ErrEdgeLied", err)
	}
	deadline := time.After(10 * time.Second)
	for {
		if _, punished := c.Punished(EdgeID(1)); punished {
			break
		}
		select {
		case <-deadline:
			t.Fatal("edge never punished")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if len(c.Verdicts()) == 0 {
		t.Fatal("no verdicts recorded")
	}
}

func TestClusterReservationAPI(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 2, FlushEvery: 20 * time.Millisecond})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Reserve(1<<20, 5*time.Second); !errors.Is(err, ErrReserveTooLarge) {
		t.Fatalf("oversized Reserve = %v, want ErrReserveTooLarge", err)
	}
	start, err := cl.Reserve(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.AddAt([]byte("reserved"), start)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterLatencyInjection(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 1, Chaos: cloudDelay(30 * time.Millisecond)})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := cl.Add([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	p1 := time.Since(start)
	if err := r.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p2 := time.Since(start)
	// Phase I avoids the cloud; Phase II pays the injected RTT.
	if p2-p1 < 40*time.Millisecond {
		t.Fatalf("phase II came too fast: p1=%v p2=%v (expected >=60ms RTT to cloud)", p1, p2)
	}
}

// TestClusterRunsOnTCPEndpoints pins the façade to the deployment
// transport: a certified put leaves the cloud's and the edge's frame
// counters in the cluster's registry.
func TestClusterRunsOnTCPEndpoints(t *testing.T) {
	c := newTestCluster(t, Config{Edges: 1, BatchSize: 1})
	cl, err := c.NewClient("c1", EdgeID(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Put([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitPhaseII(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A writer lane counts a frame after its write returns, which can be
	// after the receiver has already acted on it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sent := map[string]float64{}
		for _, s := range c.Metrics().Samples() {
			if s.Name == "wedge_transport_frames_sent_total" {
				sent[s.Labels] = s.Value
			}
		}
		var silent []NodeID
		for _, node := range []NodeID{CloudID, EdgeID(1)} {
			if sent[fmt.Sprintf("{node=%q}", node)] == 0 {
				silent = append(silent, node)
			}
		}
		if len(silent) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no frames sent by %v: %v", silent, sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterCloseGoroutineHygiene: the façade owns every node's
// listener, writer lanes, delay timers and connection monitors, and Close
// takes them all down, chaos-delayed frames included.
func TestClusterCloseGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(Config{
		Shards: 2, ReplicasPerShard: 2, BatchSize: 2, FlushEvery: 5 * time.Millisecond,
		Chaos: cloudDelay(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r, err := cl.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WaitPhaseII(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if _, err := cl.Put([]byte("late"), []byte("v")); err == nil {
		t.Fatal("put after Close succeeded")
	}

	// Lanes, monitors and readers unwind asynchronously after Serve
	// returns; poll until the goroutine count settles.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConfigValidateRejects: Validate refuses what fill cannot repair,
// before any node starts.
func TestConfigValidateRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"negative replicas", Config{ReplicasPerShard: -1}},
		{"negative lease", Config{LeaseTimeout: -time.Second}},
		{"stall bound overflows", Config{LeaseTimeout: 1000000 * time.Hour}},
		{"heartbeat outlasts lease", Config{LeaseTimeout: time.Second, HeartbeatEvery: time.Second}},
	} {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.cfg)
		}
	}
	if err := (&Config{LeaseTimeout: 1000 * time.Hour}).Validate(); err != nil {
		t.Errorf("a 1000 h lease rejected: %v", err)
	}
}
