# WedgeChain build/test entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green local `make ci` means a green pipeline.

GO ?= go

.PHONY: build test race macro-check bench bench-micro bench-pipeline bench-pr3 bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 metrics-smoke chaos fmt fmt-check vet doc-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The macro benchmark is a module of its own (benchmark/go.mod), outside
# `./...`: vet it and run its harness tests (~6 s) here, so a change to an
# internal/ API it uses breaks CI and not only the benchmark driver.
macro-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Bench smoke: every benchmark once (N=1 is exact for the deterministic
# virtual-time experiments), short mode to skip the heavy preload suites.
bench:
	$(GO) test -bench . -benchtime 1x -short -run '^$$' .

# Quick-scale paper tables as a machine-readable CI artifact.
bench-json:
	$(GO) run ./cmd/wedge-bench -run all -quick -json BENCH_quick.json

# Micro-benchmarks for the crypto/wire/merkle/mlsm/wlog hot paths
# (allocation counts included; the *Legacy benchmarks reproduce the
# pre-pipeline implementations for comparison, the BlockAck* benchmarks
# sweep block sizes to show the digest-signed ack's flat cost,
# SignMergeRequest/VerifyMergeRequest and VerifyMsgPutBatch time the
# signatures over the largest and the most frequent messages,
# VerifyMemoMiss/VerifyMemoHit the first and every later check of one
# certificate, MergeSorted/MergeL0 the compaction both sides now run, and
# CertifiedThrough the frontier lookup every proof makes).
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/wcrypto ./internal/wire ./internal/merkle ./internal/mlsm ./internal/wlog

# P1 crypto-pipeline experiment (wall-clock serial vs pipelined put hot
# path) as a machine-readable artifact. Not part of `ci`: bench-pr3 runs
# the same P1 binary as part of its P1,P2,D1 sweep, so chaining both
# would measure P1 twice; BENCH_pr2.json stays the committed PR-2 record.
bench-pipeline:
	$(GO) run ./cmd/wedge-bench -run P1 -json BENCH_pr2.json

# PR-3 artifact: put hot path (P1) + block-ack size sweep (P2, flat
# digest signing) + durable SyncEvery sweep (D1, fsync amortization).
# Not part of `ci`: bench-pr4 runs the same P1 binary, so chaining both
# would measure P1 twice; BENCH_pr3.json stays the committed PR-3 record.
bench-pr3:
	$(GO) run ./cmd/wedge-bench -run P1,P2,D1 -json BENCH_pr3.json

# PR-4 artifact: put hot path (P1, regression guard) + verified range
# scans (R1, latency/row throughput vs range width vs shard count).
# Not part of `ci`: bench-pr5 runs the same P1 binary, so chaining both
# would measure P1 twice; BENCH_pr4.json stays the committed PR-4 record.
bench-pr4:
	$(GO) run ./cmd/wedge-bench -run P1,R1 -json BENCH_pr4.json

# PR-5 artifact: put hot path (P1, regression guard) + read-evidence
# pruning (E1, bytes/read and get throughput vs L0 window, pruned vs
# full-window before/after). Not part of `ci`: bench-pr6 runs the same P1
# binary, so chaining both would measure P1 twice; BENCH_pr5.json stays
# the committed PR-5 record.
bench-pr5:
	$(GO) run ./cmd/wedge-bench -run P1,E1 -json BENCH_pr5.json

# PR-6 artifact: put hot path (P1, regression guard) + replica-group
# availability (AV1, wall-clock throughput through a killed-leader
# transition, plus a stale-serving promoted follower convicted end to
# end). Not part of `ci`: bench-pr7 runs the same P1 binary, so chaining
# both would measure P1 twice; BENCH_pr6.json stays the committed PR-6
# record.
bench-pr6:
	$(GO) run ./cmd/wedge-bench -run P1,AV1 -json BENCH_pr6.json

# PR-7 artifact: put hot path (P1, regression guard) + chaos soak (CH1,
# wall-clock healing under seeded drop/dup/delay and a mid-run leader
# partition; asserts no certified write lost and no honest conviction).
# Not part of `ci`: bench-pr9 runs the same P1 binary, so chaining both
# would measure P1 twice; BENCH_pr7.json stays the committed PR-7 record.
bench-pr7:
	$(GO) run ./cmd/wedge-bench -run P1,CH1 -json BENCH_pr7.json

# PR-8 artifact: put hot path (P1, regression guard) + front door (C1,
# wall-clock session multiplexing at flat goroutine count, admission-
# control shedding with zero lost certified writes, and the light
# client's sampled-verification CPU savings).
bench-pr8:
	$(GO) run ./cmd/wedge-bench -run P1,C1 -json BENCH_pr8.json

# PR-9 artifact: put hot path (P1, regression guard) + observability
# (OB1: instrumentation overhead on the put hot path with the registry
# on vs off, and end-to-end trust-lag p50/p99 on a live cluster, clean
# vs seeded chaos — the headline wedge_trust_lag_seconds series).
# Not part of `ci`: bench-pr10 runs the same P1 binary, so chaining both
# would measure P1 twice; BENCH_pr9.json stays the committed PR-9 record.
bench-pr9:
	$(GO) run ./cmd/wedge-bench -run P1,OB1 -json BENCH_pr9.json

# PR-10 artifact: put hot path (P1, regression guard) + certification at
# scale (CL1: batched-certificate throughput per-block vs batched across
# 1/4 chains, dispute-flood cost with the verdict cache on vs off, and
# full-stack trust lag with batching + precheck workers + the
# anti-entropy auditor, asserting zero honest convictions and zero audit
# mismatches).
bench-pr10:
	$(GO) run ./cmd/wedge-bench -run P1,CL1 -json BENCH_pr10.json

# Live-deployment telemetry check: boot a TCP cloud + edge pair with
# -metrics-addr, push a certified write, scrape both /metrics endpoints
# for the required series, and pull a short pprof CPU profile.
metrics-smoke:
	sh scripts/metrics-smoke.sh

# Long chaos soak: several seeds, long schedules, double partition
# windows, full invariant audit per seed. Deterministic — a failing seed
# reproduces with `go test -run 'ChaosSoak/seed-N' ./internal/integration`
# under WEDGE_CHAOS_SOAK=1.
chaos:
	WEDGE_CHAOS_SOAK=1 $(GO) test -v -run 'TestChaosSoak' -timeout 20m ./internal/integration/

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Every package must carry a package-level doc comment: at least one .go
# file per package with a comment line directly above its package clause.
doc-check:
	@missing=""; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		ok=0; \
		for f in $$d/*.go; do \
			if awk 'prev ~ /^\/\// && /^package / {found=1} {prev=$$0} END {exit found?0:1}' $$f; then ok=1; break; fi; \
		done; \
		if [ $$ok -eq 0 ]; then missing="$$missing $$d"; fi; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "doc-check: missing package doc comment in:"; \
		for d in $$missing; do echo "  $$d"; done; exit 1; \
	fi; \
	echo "doc-check: all packages documented"

ci: fmt-check vet doc-check build test race macro-check bench bench-micro bench-json bench-pr10 metrics-smoke
