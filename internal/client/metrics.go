package client

import (
	"wedgechain/internal/obs"
)

// metrics is the client core's registry-backed instrumentation. One
// instance per Core: families are labeled {node, chain}, so a sharded
// session's cores (same client id, one chain per shard) keep distinct
// series and per-core Stats() snapshots stay per-core. Counters (the
// storage behind Stats()) and the op-tracing histograms — trust lag, ack
// latency, verify CPU — live on a private registry when Config.Metrics is
// nil.
type metrics struct {
	disputes       *obs.Counter
	liesDetected   *obs.Counter
	staleRejected  *obs.Counter
	retries        *obs.Counter
	verifyFailures *obs.Counter
	failovers      *obs.Counter
	resends        *obs.Counter
	overloads      *obs.Counter
	fullVerifies   *obs.Counter
	sampledSkips   *obs.Counter
	verifyNanos    *obs.Counter

	// Per-phase op tracing: send -> Phase I ack -> Phase II certificate.
	// trustLag (PhaseII - PhaseI) is the headline lazy-trust SLO; ack is
	// the client-observed Phase I latency; verifyFull/verifyLight time
	// the read-verification CPU split the light client trades on.
	trustLag    *obs.Histogram
	ack         *obs.Histogram
	verifyFull  *obs.Histogram
	verifyLight *obs.Histogram
}

func newMetrics(reg *obs.Registry, node, chain string) *metrics {
	m := &metrics{}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "node", "chain").With(node, chain)
	}
	m.disputes = c("wedge_client_disputes_total", "disputes filed with the cloud")
	m.liesDetected = c("wedge_client_lies_detected_total", "edge lies detected by verification")
	m.staleRejected = c("wedge_client_stale_rejected_total", "reads rejected as stale")
	m.retries = c("wedge_client_retries_total", "verification-driven retries (stale gets, contradicted denials)")
	m.verifyFailures = c("wedge_client_verify_failures_total", "responses failing verification")
	m.failovers = c("wedge_client_failovers_total", "leadership transfers applied")
	m.resends = c("wedge_client_resends_total", "transport-level retry re-sends")
	m.overloads = c("wedge_client_overloads_total", "signed Overloaded shed signals accepted")
	m.fullVerifies = c("wedge_client_full_verifies_total", "get and scan responses fully structurally verified")
	m.sampledSkips = c("wedge_client_sampled_skips_total", "get responses accepted on the light-client sampling fast path")
	m.verifyNanos = c("wedge_client_verify_cpu_nanos_total", "wall-clock nanoseconds spent in full verification")
	m.trustLag = reg.HistogramVec("wedge_trust_lag_seconds",
		"time an acked write spent uncertified (stage=edge: block cut to certificate; stage=client: Phase I ack to Phase II proof)",
		obs.LatencyBuckets, "node", "stage").With(node, "client")
	h := func(name, help string) *obs.Histogram {
		return reg.HistogramVec(name, help, obs.LatencyBuckets, "node", "chain").With(node, chain)
	}
	m.ack = h("wedge_client_ack_seconds", "client-observed Phase I ack latency for writes")
	vv := reg.HistogramVec("wedge_client_verify_seconds",
		"per-read verification CPU", obs.LatencyBuckets, "node", "chain", "mode")
	m.verifyFull = vv.With(node, chain, "full")
	m.verifyLight = vv.With(node, chain, "light")
	return m
}

// isWrite reports whether k is a Phase I/II write op (trust-lag bearing).
func isWrite(k Kind) bool { return k == KindAdd || k == KindPut }

// markPhaseI records the ack latency of a write reaching Phase I. The
// timestamps are handler time (virtual ns in the sim, wall ns over TCP),
// consistent within one world.
func (m *metrics) markPhaseI(op *Op) {
	if !isWrite(op.Kind) {
		return
	}
	m.ack.Observe(float64(op.PhaseIAt-op.StartedAt) / 1e9)
}

// markPhaseII records the trust lag of a write reaching Phase II.
func (m *metrics) markPhaseII(op *Op) {
	if !isWrite(op.Kind) {
		return
	}
	m.trustLag.Observe(float64(op.PhaseIIAt-op.PhaseIAt) / 1e9)
}
