#!/bin/sh
# metrics-smoke: build the binaries, run a live cloud + durable edge pair with
# -metrics-addr, push one write through the client, then scrape both
# /metrics endpoints and fail unless every core series is present (and
# pprof answers a short CPU profile). This is the CI check that the
# telemetry acceptance criteria hold on the real TCP deployment, not
# just the in-process façade.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
CLOUD_PID=""
EDGE_PID=""
cleanup() {
    [ -n "$EDGE_PID" ] && kill "$EDGE_PID" 2>/dev/null || true
    [ -n "$CLOUD_PID" ] && kill "$CLOUD_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "metrics-smoke: building binaries"
go build -o "$WORK/wedge-cloud" ./cmd/wedge-cloud
go build -o "$WORK/wedge-edge" ./cmd/wedge-edge
go build -o "$WORK/wedge-client" ./cmd/wedge-client

CLOUD_PORT=19001
EDGE_PORT=19002
CLIENT_PORT=19003
CLOUD_METRICS=127.0.0.1:19091
EDGE_METRICS=127.0.0.1:19092

"$WORK/wedge-cloud" -listen ":$CLOUD_PORT" \
    -peers "edge-1=localhost:$EDGE_PORT,c1=localhost:$CLIENT_PORT" \
    -metrics-addr "$CLOUD_METRICS" >"$WORK/cloud.log" 2>&1 &
CLOUD_PID=$!
"$WORK/wedge-edge" -id edge-1 -listen ":$EDGE_PORT" \
    -peers "cloud=localhost:$CLOUD_PORT,c1=localhost:$CLIENT_PORT" \
    -batch 1 -data "$WORK/edge-data" -group-commit 5ms \
    -metrics-addr "$EDGE_METRICS" >"$WORK/edge.log" 2>&1 &
EDGE_PID=$!

wait_http() {
    i=0
    while ! curl -fsS "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "metrics-smoke: $1 never came up" >&2
            cat "$WORK"/*.log >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_http "http://$CLOUD_METRICS/healthz"
wait_http "http://$EDGE_METRICS/healthz"

echo "metrics-smoke: writing through the client"
"$WORK/wedge-client" -id c1 -listen ":$CLIENT_PORT" \
    -peers "cloud=localhost:$CLOUD_PORT,edge-1=localhost:$EDGE_PORT" \
    -edge edge-1 -wait2 put smoke-key smoke-value >"$WORK/client.log" 2>&1
# A get of the certified key, which the edge answers without signing.
"$WORK/wedge-client" -id c1 -listen ":$CLIENT_PORT" \
    -peers "cloud=localhost:$CLOUD_PORT,edge-1=localhost:$EDGE_PORT" \
    -edge edge-1 get smoke-key >>"$WORK/client.log" 2>&1

curl -fsS "http://$EDGE_METRICS/metrics" >"$WORK/edge.metrics"
curl -fsS "http://$CLOUD_METRICS/metrics" >"$WORK/cloud.metrics"

require() {
    if ! grep -q "$2" "$WORK/$1.metrics"; then
        echo "metrics-smoke: FAIL — $1 /metrics missing series: $2" >&2
        echo "--- $1 /metrics ---" >&2
        cat "$WORK/$1.metrics" >&2
        exit 1
    fi
}

# Edge: write path, trust lag, transport.
require edge 'wedge_edge_writes_total{node="edge-1"} [1-9]'
require edge 'wedge_edge_blocks_cut_total{node="edge-1"} [1-9]'
require edge 'wedge_edge_certified_blocks_total{node="edge-1"} [1-9]'
require edge 'wedge_trust_lag_seconds_count{node="edge-1",stage="edge"} [1-9]'
require edge 'wedge_transport_frames_sent_total{node="edge-1"} [1-9]'
require edge 'wedge_transport_lane_drops_total{node="edge-1"}'
require edge 'wedge_transport_unreachable_drops_total{node="edge-1"}'
# Compaction healing: no merge has been lost, the series only has to exist.
require edge 'wedge_edge_merge_retries_total{node="edge-1"}'
# The log: this edge runs durable (-data, -group-commit), but one block
# never fills its L0 window, so the block stays in memory and nothing is
# read back from the segment; the read series only has to exist.
require edge 'wedge_wlog_resident_block_bytes{node="edge-1"} [1-9]'
require edge 'wedge_wlog_segment_reads_total{node="edge-1"}'
# Durable acknowledgement: the block was held for its fsync, and its hold
# observed.
require edge 'wedge_edge_ack_hold_seconds_count{node="edge-1"} [1-9]'
# Signature checks: a certified write costs the edge first verifications
# (the client's request, the cloud's proof); nothing has repeated or
# failed yet, so the hit and bad-signature series only have to exist.
require edge 'wedge_wcrypto_verify_memo_misses_total{node="edge-1"} [1-9]'
require edge 'wedge_wcrypto_verify_memo_hits_total{node="edge-1"}'
require edge 'wedge_wcrypto_bad_signatures_total{node="edge-1"}'
# Reads: the one get found its block certified, so the edge signed no
# read answer.
require edge 'wedge_edge_gets_total{node="edge-1"} 1$'
require edge 'wedge_edge_read_signatures_total{node="edge-1"} 0$'
# Cloud: certification, proof cache, disputes by verdict.
require cloud 'wedge_certifies_total{node="cloud"} [1-9]'
require cloud 'wedge_certify_seconds_count{node="cloud"} [1-9]'
require cloud 'wedge_cloud_proof_cache_hits_total{node="cloud"}'
require cloud 'wedge_disputes_total{node="cloud",verdict="guilty"}'
require cloud 'wedge_disputes_total{node="cloud",verdict="not_guilty"}'
require cloud 'wedge_transport_frames_sent_total{node="cloud"} [1-9]'
require cloud 'wedge_transport_unreachable_drops_total{node="cloud"}'
require cloud 'wedge_wcrypto_verify_memo_misses_total{node="cloud"} [1-9]'
require cloud 'wedge_wcrypto_verify_memo_hits_total{node="cloud"}'
require cloud 'wedge_wcrypto_bad_signatures_total{node="cloud"}'

echo "metrics-smoke: profiling the live edge (1s)"
curl -fsS -o "$WORK/profile.pb.gz" "http://$EDGE_METRICS/debug/pprof/profile?seconds=1"
[ -s "$WORK/profile.pb.gz" ] || { echo "metrics-smoke: empty pprof profile" >&2; exit 1; }

echo "metrics-smoke: OK"
