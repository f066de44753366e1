package cloud

import (
	"wedgechain/internal/obs"
)

// metrics is the cloud node's registry-backed instrumentation. As on
// the edge, counters and histograms are always live (counters are the
// atomic storage behind Stats(), making mid-run polling race-free) and
// fall back to a private registry when Config.Metrics is nil — the
// certification-latency histogram included, so both the pre-verified
// fast path and the inline-verify path observe unconditionally.
type metrics struct {
	certifies         *obs.Counter
	proofSigns        *obs.Counter
	proofCacheHits    *obs.Counter
	conflicts         *obs.Counter
	merges            *obs.Counter
	mergeRejects      *obs.Counter
	disputesGuilty    *obs.Counter
	disputesNotGuilty *obs.Counter
	guiltyEdges       *obs.Counter
	gossipsSent       *obs.Counter
	bytesFromEdge     *obs.Counter
	heartbeats        *obs.Counter
	transfers         *obs.Counter
	rejoins           *obs.Counter
	verdictCacheHits  *obs.Counter
	judgeDecodes      *obs.Counter

	certify      *obs.Histogram // wall-clock handleCertify latency
	batchEntries *obs.Histogram // triples per signed certificate batch
}

// batchBuckets bounds the wedge_cert_batch_entries histogram: batch
// sizes are small powers of two (CertBatch caps the run).
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

func newMetrics(reg *obs.Registry, node string) *metrics {
	m := &metrics{}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "node").With(node)
	}
	m.certifies = c("wedge_certifies_total", "block digests certified (first accept)")
	m.proofSigns = c("wedge_cloud_proof_signs_total", "signatures spent on block proofs (== certifies when batching is off)")
	m.proofCacheHits = c("wedge_cloud_proof_cache_hits_total", "duplicate certifies answered from the signed-proof cache")
	m.conflicts = c("wedge_cloud_conflicts_total", "conflicting digest certifies (equivocation convictions)")
	m.merges = c("wedge_cloud_merges_total", "LSMerkle merges performed")
	m.mergeRejects = c("wedge_cloud_merge_rejects_total", "merge requests rejected")
	// One series per adjudication outcome; both are touched at
	// registration so a scrape shows the pair at 0 before any dispute.
	dv := reg.CounterVec("wedge_disputes_total", "dispute adjudications by verdict", "node", "verdict")
	m.disputesGuilty = dv.With(node, "guilty")
	m.disputesNotGuilty = dv.With(node, "not_guilty")
	m.guiltyEdges = c("wedge_cloud_guilty_edges_total", "distinct edges convicted")
	m.gossipsSent = c("wedge_cloud_gossips_total", "gossip messages sent")
	m.bytesFromEdge = c("wedge_cloud_edge_bytes_total", "bytes received on the edge-cloud coordination channel")
	m.heartbeats = c("wedge_cloud_heartbeats_total", "replica heartbeats processed")
	m.transfers = c("wedge_cloud_transfers_total", "signed leadership transfers issued")
	m.rejoins = c("wedge_cloud_rejoins_total", "ex-members re-admitted to their replica group")
	m.verdictCacheHits = c("wedge_verdict_cache_hits_total", "disputes answered from the verdict cache (no Judge decode)")
	m.judgeDecodes = c("wedge_cloud_judge_decodes_total", "full Judge adjudications (evidence decoded and re-verified)")
	m.certify = reg.HistogramVec("wedge_certify_seconds",
		"wall-clock certification latency at the cloud", obs.LatencyBuckets, "node").With(node)
	m.batchEntries = reg.HistogramVec("wedge_cert_batch_entries",
		"certified triples covered per signed certificate batch", batchBuckets, "node").With(node)
	return m
}
