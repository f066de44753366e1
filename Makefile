# WedgeChain build/test entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green local `make ci` means a green pipeline.

GO ?= go

.PHONY: build test race macro-check bench bench-micro fuzz-smoke experiments quick-diff pairs metrics-smoke flagdoc-check loc loc-check chaos chaos-tcp fmt fmt-check vet doc-check ci

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

# Experiments (`wedge-bench -list`) into one machine-readable artifact,
# BENCH_quick.json (git-ignored; CI uploads it). The default — every
# experiment at quick scale — is the CI run; `make experiments IDS=S1,R1
# SCALE=` runs two at full scale. Fails when an experiment reports an
# error: a lost certified write, an honest conviction, an arm that could
# not run.
IDS ?= all
SCALE ?= -quick
experiments:
	$(GO) run ./cmd/wedge-bench -run $(IDS) $(SCALE) -json BENCH_quick.json

# Every experiment at quick scale on BASE and on the working tree, table by
# table: the virtual-time ones must match byte for byte, the wall-clock one
# (F5d) is only reported. `make quick-diff BASE=HEAD~1`.
quick-diff:
	sh scripts/quick-diff.sh $(BASE)

# Alternating macro-benchmark pairs, BASE against the working tree: per
# end-to-end metric the two medians, each side's IQR, wins k/N and the check
# against BENCHMARK.json's bound, plus ops_per_s and cpu_us_per_op normalised
# by each run's ref_verify_us. `make pairs BASE=HEAD~1 WORKLOADS=mixed_cluster
# N=5 SEEDS=101-105` (SECS= shortens each run). Every result line is kept in
# pairs.jsonl.
pairs:
	bash scripts/pairs.sh "$(BASE)" "$(WORKLOADS)" "$(N)" "$(SEEDS)" "$(SECS)"

# Micro-benchmarks: every package outside benchmark/ with a Benchmark
# function, found by name as fuzz-smoke finds its targets, except the root
# package, whose benchmarks regenerate the experiments (`make bench`).
# Among them the crypto/wire/merkle/mlsm/wlog hot paths
# (allocation counts included; BlockDigest at B = 10/100/1000 is what a
# receiver of a whole block pays once, BlockFreeze what the edge pays at a
# cut, SliceVerify what a reader pays per block of the L0 window and
# PageSliceVerify per level page, the BlockAck* benchmarks sweep block
# sizes to show the digest-signed ack's flat cost,
# SignMergeRequest/VerifyMergeRequest time the signature over the largest
# message, VerifyMACPutBatch the MAC an edge checks per write batch and
# DerivePairKey the X25519 exchange behind it, paid once per peer,
# VerifyMemoMiss/VerifyMemoHit the first and every later check of one
# certificate, MergeSorted/MergeL0 the compaction both sides now run,
# LevelTree the hashing per record a merge pays to commit a level,
# CloudMerge the cloud's whole merge handler from the frame (an L0 merge of
# ten 100-entry blocks into 1,000 records, a 1,000-record level into
# 5,000), CertifiedThrough the frontier lookup every proof makes, and
# LogResidentBytesPerBlock the live heap a cut 100-entry block costs the
# edge with half the log below the compaction frontier, built from entries
# without signatures as clients send them (memory arm: 29.0 KB; durable
# arm, whose released blocks leave memory for the segment: 20.8 KB, and
# about 1,040 B per compacted block, 850 B of it the replay table `seen`),
# and RegistryResidentBytes the live heap a key registry
# keeps for its signature memo after 100,000 one-shot checks and one
# statement checked again after every 100 (165,000 B; 558,216 B when the
# memo kept whole triples) — the layer counterparts of the macro
# benchmark's heap_bytes_per_put), and GetResponseCertified/PhaseI one
# client get over four 100-entry blocks, all certified or the newest not:
# the gap is the edge-signature check only a Phase I read pays;
# GetResponseCertifiedColdCerts the certified get with the window's two
# newest certificates not yet in the session's memo: the gap is the two
# Ed25519 checks the leader's certificate push moves off a get; and
# AssembleScanCertified/PhaseI the edge's answer to that get: the gap is
# the signature only a Phase I answer costs the edge; and TickPendingOps
# one client tick with 1,000 unanswered writes between their re-send
# marks (9-12 ns: the retry pass walks the client's windows only when the
# earliest mark is due).
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem $$(grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Benchmark' . | xargs -n1 dirname | sort -u | grep -vx '\.')

# Every Fuzz* target outside benchmark/ for 10 s each, found by name so a
# new target is smoked the day it is written: decoders and verifiers run on
# bytes no signature has vouched for yet.
fuzz-smoke:
	@for d in $$(grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$(grep -h -o '^func Fuzz[A-Za-z0-9_]*' $$d/*_test.go | sed 's/^func //'); do \
			echo "fuzz-smoke: $$d $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$d || exit 1; \
		done; \
	done

# Live-deployment telemetry check: boot a TCP cloud + edge pair with
# -metrics-addr, push a certified write, scrape both /metrics endpoints
# for the required series, and pull a short pprof CPU profile.
metrics-smoke:
	sh scripts/metrics-smoke.sh

# Every flag of the three deployment binaries has a row in its
# docs/RUNBOOK.md table, and every row names a flag the binary still has.
flagdoc-check:
	sh scripts/flagdoc-check.sh

# Non-test Go lines per package outside benchmark/, and their total — the
# number the code diet (ROADMAP item 8) is judged by. loc-check is the
# ratchet CI runs: it fails above LOC_CEILING, the total as of the last PR
# that moved it, so a PR that grows the tree says so in its diff.
LOC_CEILING := 21187
loc:
	@sh scripts/loc.sh
loc-check:
	@sh scripts/loc.sh $(LOC_CEILING)

# Long chaos soak on the simulator: several seeds, long schedules, double
# partition windows, full invariant audit per seed. WEDGE_CHAOS_SEEDS picks
# the seeds (`WEDGE_CHAOS_SEEDS=1-300 make chaos` is the sweep); the output
# ends with one line per failing seed and its first failure.
# Deterministic — a failing seed N reproduces with
# `WEDGE_CHAOS_SEEDS=N go test -run 'ChaosSoak$$' ./internal/integration`.
chaos:
	WEDGE_CHAOS_SOAK=1 $(GO) test -count=1 -run 'TestChaosSoak$$' -timeout 20m ./internal/integration/

# The same soak on loopback TCP, one endpoint per node, seeds 1-3: each
# seed's line reports pass or its first failure and its wall time (about
# 30 s). Wall-clock scheduling decides which frames the seeded faults hit,
# so a TCP seed does not reproduce the simulator's run.
chaos-tcp:
	WEDGE_CHAOS_SOAK=1 WEDGE_CHAOS_SEEDS=1-3 $(GO) test -count=1 -v -run 'TestChaosSoakTCP$$' -timeout 20m ./internal/integration/

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

ci: fmt-check vet doc-check loc-check build test race macro-check bench bench-micro fuzz-smoke experiments metrics-smoke flagdoc-check
