package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Parameters fixed for every workload (see README.md "Fixed parameters").
const (
	burstSize    = 100 // entries per PutBatch = entries per block (B)
	valueSize    = 128
	flushEvery   = 100 * time.Millisecond // wedge-edge default
	gossipEvery  = time.Second            // wedge-cloud default
	groupCommit  = 5 * time.Millisecond   // durable workloads only
	leaseTimeout = 10 * time.Second       // replicated workloads only; see newCluster
	zipfS        = 1.1

	setupRepeats = 3 // set-ups per run; setup_s is their median
	warmup       = time.Second
	drainLimit   = 5 * time.Second
	windows      = 5 // equal slices of the interval, for the reported spread
	generators   = 2 // load-generator goroutines = client TCP endpoints
)

// spec is one workload: the cluster shape and the traffic offered to it.
// Why each one exists is in BENCHMARK.json and README.md.
type spec struct {
	Name string

	// Cluster shape.
	Shards, Replicas       int
	Durable                bool
	CloudDelay             time.Duration // one-way, on every frame to or from the cloud
	CertBatch, CertWorkers int

	// PutsWait: a write's latency is a wait — for its block to fill, for
	// the group commit, for the injected delay — not processor time, and
	// is reported as read, not scaled to the reference host (ref.go).
	PutsWait bool

	// Traffic. Open loops offer the rates below on a fixed schedule;
	// the closed loop ignores them and runs each session's program as
	// fast as completions allow.
	Closed    bool
	Sessions  int
	Preload   int // keys 0..Preload-1 are written and certified during set-up
	PutKeys   int // bursts draw uniform keys below this
	BurstRate float64
	PutRate   float64 // single, individually signed puts, Zipf over Preload
	GetRate   float64 // Zipf over Preload
	ScanRate  float64 // start key Zipf over Preload
	ScanWidth int

	// Closed loop only: bursts a session may have awaiting Phase II, and
	// the read mix of its program (one get after every burst, one scan
	// after every ScanEvery-th).
	Window    int
	ScanEvery int
}

var workloads = []spec{
	{
		Name:   "put_burst",
		Shards: 1, Replicas: 1, CertBatch: 1,
		Sessions: 8, Preload: 5000, PutKeys: 5000,
		BurstRate: 60, GetRate: 200, ScanRate: 40, ScanWidth: 100,
	},
	{
		Name: "put_saturate",
		// CertBatch 1, not the issue's 16: batched certificates convict an
		// honest edge under load (README, "Deviations"). Set 16 once fixed.
		Shards: 1, Replicas: 1, CertBatch: 1, CertWorkers: 2,
		Closed: true, Sessions: 8, Preload: 5000, PutKeys: 5000,
		ScanWidth: 100, Window: 8, ScanEvery: 4,
	},
	{
		Name:   "read_verify",
		Shards: 1, Replicas: 1, CertBatch: 1,
		Sessions: 16, Preload: 20000, PutKeys: 20000,
		BurstRate: 20, GetRate: 500, ScanRate: 40, ScanWidth: 100,
	},
	{
		Name:   "mixed_cluster",
		Shards: 2, Replicas: 2, Durable: true, CloudDelay: 10 * time.Millisecond, CertBatch: 1, PutsWait: true,
		Sessions: 64, Preload: 20000, PutKeys: 20000,
		PutRate: 320, GetRate: 440, ScanRate: 40, ScanWidth: 50,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric. Bound is the share of the
// baseline's value by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the contract this program is checked
// against; compare reads the bounds from it and the tests pin the metric
// names this program emits to the ones it lists.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// perLayer lists the per-layer metrics of the traced run. The kind lists
// below expand into one metric per wire kind.
var perLayer = buildPerLayer()

var (
	clientRecvKinds   = []string{"PutResponse", "BlockProof", "BlockCertBatch", "GetResponse", "ScanResponse", "Gossip"}
	submitKinds       = []string{"put_batch", "put", "get", "scan"}
	hopLinks          = []string{"client_edge", "edge_client", "edge_cloud", "cloud_edge", "edge_follower"}
	wireCodecKinds    = []string{"PutBatch", "PutRequest", "PutResponse", "GetResponse", "ScanResponse", "MergeRequest"}
	wireBytesKinds    = []string{"GetResponse", "ScanResponse", "BlockCertify", "BlockCertifyBatch", "BlockProof", "BlockCertBatch", "MergeRequest", "ReplicateBlock"}
	preverifyKinds    = []string{"PutBatch", "PutRequest", "BlockCertify", "BlockCertifyBatch", "GetResponse", "ReplicateBlock"}
	edgeRecvKinds     = []string{"PutBatch", "PutRequest", "GetRequest", "ScanRequest", "BlockProof", "BlockCertBatch", "MergeResponse"}
	followerRecvKinds = []string{"ReplicateBlock", "BlockProof"}
	cloudRecvKinds    = []string{"BlockCertify", "BlockCertifyBatch", "MergeRequest", "ReplicaHeartbeat"}
)

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(unit, prefix string, kinds []string) {
		for _, k := range kinds {
			add(unit, "lower", prefix+k)
		}
	}
	each("us", "client.submit_us.", submitKinds)
	each("us", "client.recv_us.", clientRecvKinds)
	add("ms", "lower", "client.put_phase1_p99_ms", "client.put_phase2_p99_ms", "client.get_p99_ms",
		"client.scan_p95_ms", "client.trust_lag_p50_ms", "client.trust_lag_p99_ms")
	add("count", "lower", "client.retries", "client.resends", "client.disputes")

	each("us", "transport.hop_wait_us.", hopLinks)
	add("count", "lower", "transport.frames_per_op")
	add("B", "lower", "transport.bytes_per_op")
	add("count", "lower", "transport.lane_drops", "transport.redials")

	each("us", "wire.encode_us.", wireCodecKinds)
	each("us", "wire.decode_us.", wireCodecKinds)
	each("B", "wire.bytes.", wireBytesKinds)

	each("us", "wcrypto.preverify_us.", preverifyKinds)
	add("us", "lower", "wcrypto.sign_us")
	add("count", "lower", "wcrypto.sigs_per_op")

	each("us", "edge.recv_us.", edgeRecvKinds)
	each("us", "edge.follower_recv_us.", followerRecvKinds)
	add("us/s", "lower", "edge.tick_us_per_s")
	add("ratio", "lower", "edge.busy_share")
	add("count", "higher", "edge.entries_per_block")
	add("count", "lower", "edge.merges_per_kput", "edge.cert_retries", "edge.shed")

	each("us", "cloud.recv_us.", cloudRecvKinds)
	add("ratio", "lower", "cloud.busy_share")
	add("count", "higher", "cloud.certs_per_sign")
	add("B", "lower", "cloud.cert_bytes_per_put", "cloud.merge_bytes_per_put")
	add("count", "lower", "cloud.merges")

	add("us", "lower", "mlsm.merge_us_per_kkv")
	add("count", "lower", "mlsm.l0_window_blocks_mean")
	add("us", "lower", "merkle.verify_us", "merkle.range_verify_us")
	add("us", "lower", "scan.verify_us_per_row")
	add("count", "higher", "scan.rows_per_scan")
	add("B", "lower", "scan.response_bytes")
	add("us", "lower", "wlog.append_us_per_block")
	add("s", "lower", "wlog.recover_s")
	add("count", "higher", "wlog.recovered_blocks")
	add("ratio", "lower", "shard.skew")
	add("ms", "lower", "load.late_p99_ms", "load.late_max_ms")
	add("ratio", "higher", "load.cpu_utilisation")
	add("count", "lower", "load.inflight_mean")
	add("us", "lower", "load.ref_verify_us")
	add("MB", "lower", "load.peak_rss_mb")
	add("us", "lower", "budget.put_phase1_path_us", "budget.put_phase2_path_us", "budget.get_path_us", "budget.residual_us_per_op")
	return out
}
