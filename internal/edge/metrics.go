package edge

import (
	"wedgechain/internal/obs"
)

// metrics is the edge node's registry-backed instrumentation: counters
// (the atomic storage behind Stats()) and timing histograms (serve
// latency, trust lag, block sizes). With no registry configured they live
// on a private one.
type metrics struct {
	writes       *obs.Counter
	blocksCut    *obs.Counter
	certified    *obs.Counter
	reads        *obs.Counter
	gets         *obs.Counter
	scans        *obs.Counter
	readSigs     *obs.Counter
	certPushes   *obs.Counter
	merges       *obs.Counter
	bytesToCloud *obs.Counter
	shed         *obs.Counter
	certRetries  *obs.Counter
	mergeRetries *obs.Counter
	catchUps     *obs.Counter
	shedSignals  *obs.Counter
	truncated    *obs.Counter
	replicated   *obs.Counter
	segmentReads *obs.Counter
	residentLog  *obs.Gauge

	serveGet     *obs.Histogram // wall-clock per-op serve latency
	serveScan    *obs.Histogram
	serveRead    *obs.Histogram
	blockEntries *obs.Histogram // entries per cut block
	trustLag     *obs.Histogram // block cut -> certificate installed
	ackHold      *obs.Histogram // block cut -> group-commit release (durable)

	// cutAt stamps each cut block's handler time for the trust-lag
	// histogram, bounded by the uncertified backlog plus cutAtCap as a
	// backstop.
	cutAt map[uint64]int64
}

// cutAtCap bounds the cut-timestamp map; blocks whose certificates
// never arrive (conviction, demotion) would otherwise pin entries
// forever. Exceeding it clears the map — the cost is a few unmeasured
// lag samples, never unbounded memory.
const cutAtCap = 1 << 16

func newMetrics(reg *obs.Registry, node string) *metrics {
	m := &metrics{}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "node").With(node)
	}
	m.writes = c("wedge_edge_writes_total", "entries appended to the edge log")
	m.blocksCut = c("wedge_edge_blocks_cut_total", "blocks cut from the write buffer")
	m.certified = c("wedge_edge_certified_blocks_total", "block certificates installed")
	m.reads = c("wedge_edge_reads_total", "read(bid) requests served")
	m.gets = c("wedge_edge_gets_total", "get(key) requests served")
	m.scans = c("wedge_edge_scans_total", "scan requests served")
	m.readSigs = c("wedge_edge_read_signatures_total", "read, get and scan answers signed: a denial and a Phase I answer; a certified one proves itself")
	m.certPushes = c("wedge_edge_cert_pushes_total", "block proofs pushed to recent readers beyond the block's waiters, one turn after the waiters'")
	m.merges = c("wedge_edge_merges_total", "compaction merges requested")
	m.bytesToCloud = c("wedge_edge_cloud_bytes_total", "bytes sent on the edge-cloud coordination channel")
	m.shed = c("wedge_edge_shed_writes_total", "writes shed by the MaxUncertified backpressure cap")
	m.certRetries = c("wedge_edge_cert_retries_total", "stall-gated certification retries")
	m.mergeRetries = c("wedge_edge_merge_retries_total", "overdue merge requests re-sent to the cloud")
	m.catchUps = c("wedge_edge_catchups_total", "catch-up requests issued while recovering a gap")
	m.shedSignals = c("wedge_edge_shed_signals_total", "signed Overloaded signals sent to clients")
	m.truncated = c("wedge_edge_truncated_blocks_total", "uncertified blocks discarded on demotion")
	m.replicated = c("wedge_edge_replicated_blocks_total", "block copies streamed to followers (fan-out)")
	m.segmentReads = c("wedge_wlog_segment_reads_total", "compacted blocks read back from the durable segment")
	m.residentLog = reg.GaugeVec("wedge_wlog_resident_block_bytes", "canonical block bytes the log holds in memory", "node").With(node)
	h := func(name, help string, buckets []float64) *obs.Histogram {
		return reg.HistogramVec(name, help, buckets, "node").With(node)
	}
	m.serveGet = h("wedge_edge_serve_get_seconds", "wall-clock get(key) serve latency", obs.LatencyBuckets)
	m.serveScan = h("wedge_edge_serve_scan_seconds", "wall-clock scan serve latency", obs.LatencyBuckets)
	m.serveRead = h("wedge_edge_serve_read_seconds", "wall-clock read(bid) serve latency", obs.LatencyBuckets)
	m.blockEntries = h("wedge_edge_block_entries", "entries per cut block", obs.SizeBuckets)
	m.trustLag = reg.HistogramVec("wedge_trust_lag_seconds",
		"time an acked write spent uncertified (stage=edge: block cut to certificate; stage=client: Phase I ack to Phase II proof)",
		obs.LatencyBuckets, "node", "stage").With(node, "edge")
	m.ackHold = h("wedge_edge_ack_hold_seconds",
		"time from a durable node's block cut to the release of its acknowledgements, replication and certify request after the covering sync",
		obs.LatencyBuckets)
	m.cutAt = make(map[uint64]int64)
	return m
}

// markCut records a freshly cut block: size histogram plus the
// trust-lag start stamp. now is handler time — virtual nanoseconds
// under the sim, wall nanoseconds over TCP — so the lag histogram is
// meaningful in both worlds.
func (m *metrics) markCut(bid uint64, now int64, entries int) {
	m.blockEntries.Observe(float64(entries))
	if len(m.cutAt) >= cutAtCap {
		m.cutAt = make(map[uint64]int64)
	}
	m.cutAt[bid] = now
}

// markCertified closes the trust-lag interval opened by markCut.
func (m *metrics) markCertified(bid uint64, now int64) {
	if t0, ok := m.cutAt[bid]; ok {
		m.trustLag.Observe(float64(now-t0) / 1e9)
		delete(m.cutAt, bid)
	}
}
