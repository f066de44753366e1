package integration

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	wedge "wedgechain"
	"wedgechain/internal/obs"
)

// TestMetricsScrapeEndToEnd drives a live façade cluster, scrapes its
// registry over HTTP, and asserts the headline series are present: the
// trust-lag histogram has samples after certified puts, the cloud
// certification counter moved, both dispute verdict series exist (at
// zero), and /healthz and /debug/pprof/ respond.
func TestMetricsScrapeEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	cluster, err := wedge.NewCluster(wedge.Config{
		Edges:      1,
		BatchSize:  2,
		FlushEvery: 5 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Metrics() != reg {
		t.Fatal("Cluster.Metrics() did not return the configured registry")
	}

	srv, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := cluster.NewClient("metrics-client", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rc, err := c.Put([]byte("mk"), []byte("mv"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if err := rc.WaitPhaseII(10 * time.Second); err != nil {
			t.Fatalf("put %d phase II: %v", i, err)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE wedge_trust_lag_seconds histogram",
		`wedge_trust_lag_seconds_count{node="edge-1",stage="edge"}`,
		`wedge_trust_lag_seconds_count{node="metrics-client",stage="client"}`,
		"wedge_certifies_total",
		`wedge_disputes_total{node="cloud",verdict="guilty"} 0`,
		`wedge_disputes_total{node="cloud",verdict="not_guilty"} 0`,
		"wedge_edge_writes_total",
		`wedge_wcrypto_bad_signatures_total{node="cluster"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The certified puts must have produced trust-lag samples on both
	// stages — the scrape is the SLO's delivery path.
	for _, stage := range []string{"edge", "client"} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "wedge_trust_lag_seconds_count{") &&
				strings.Contains(line, `stage="`+stage+`"`) &&
				!strings.HasSuffix(line, " 0") {
				found = true
			}
		}
		if !found {
			t.Errorf("no trust-lag samples for stage=%q after certified puts", stage)
		}
	}
	if reg.CounterValue("wedge_certifies_total") == 0 {
		t.Error("wedge_certifies_total did not move")
	}
	// Every node of the façade verifies against one key registry: the
	// edge checks each block proof once (a miss) and the client's check of
	// the forwarded copy is answered from the memo (a hit).
	for _, name := range []string{"wedge_wcrypto_verify_memo_misses_total", "wedge_wcrypto_verify_memo_hits_total"} {
		if reg.CounterValue(name) == 0 {
			t.Errorf("%s did not move", name)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz: status %d body %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}
