# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets: `make check` on every push/PR, `make test-full` nightly.

GO ?= go

.PHONY: build vet fmt-check test test-race test-race-w4 test-race-faulty test-full test-e2ebench fuzz-smoke bench bench-smoke bench-compare bench-allocs-check docs-check check

# PR number stamped into benchmark snapshots (BENCH_$(PR).json), and the
# provenance note recorded inside; override both per perf PR, e.g.
#   make bench PR=5 BENCH_NOTE="batched wake scan; vs BENCH_2: ..."
PR ?= 17
BENCH_NOTE ?= engine benchmark snapshot (PR $(PR)); compare against the previous BENCH_<n>.json via benchstat

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean: lists any file gofmt would rewrite
# (under internal/, cmd/, e2ebench/ and the repo root) and fails if there is
# one. Part of `make check`.
fmt-check:
	@out=$$(gofmt -l internal cmd e2ebench *.go); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi; \
	echo "fmt-check: all Go files gofmt-clean"

# Fast suite: every package, seconds of wall clock.
test:
	$(GO) test -short ./...

# Fast suite under the race detector — the standing check on the parallel
# CONGEST engine (internal/congest/parallel.go). CI runs this twice: once
# as-is (sequential default) and once with CONGEST_WORKERS=4, which makes
# every network default to the parallel engine so the pool and the sharded
# wake scan run under the race detector across the whole suite.
test-race:
	$(GO) test -race -short ./...

# The workers=4 leg of the race matrix, runnable locally.
test-race-w4:
	CONGEST_WORKERS=4 $(GO) test -race -short ./...

# The fault-injection race leg: drain a faulty-scenario jobs queue over the
# shared pool with every network on the parallel engine (CONGEST_WORKERS=4),
# under the race detector. Faults are applied by the coordinator between
# worker waves; this leg would trip -race if that ever stopped being true.
test-race-faulty:
	CONGEST_WORKERS=4 $(GO) test -race -count=1 \
		-run 'TestJobsFaultyScenarioSharedPoolRace|TestJobsScenarioDeterministicAcrossPoolAndCache|TestScenarioParallelMatchesSequential' \
		./internal/bench/ ./internal/congest/

# Full suite, including the multi-second experiment sweeps.
test-full:
	$(GO) test ./...

# The end-to-end benchmark (e2ebench/) is its own Go module, so ./... above
# never compiles it; vet and test it here so an engine API it calls cannot
# disappear unnoticed until the benchmark runs.
test-e2ebench:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzz pass over the input parsers (nightly CI): the jobs spec,
# the fault-scenario spec and the edge-list loader must never panic, every
# accepted scenario must survive a parse-print-parse round trip, and every
# accepted edge list must map its nodes to strictly ascending external IDs.
# `go test -fuzz` takes one target per invocation, hence one run each.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/congest/
	$(GO) test -run='^$$' -fuzz=FuzzParseJobSpec -fuzztime=$(FUZZTIME) ./internal/bench/
	$(GO) test -run='^$$' -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/

# Engine benchmarks (graph-family x worker-count matrix on n=10k graphs,
# plus the BenchmarkNetworkSetup cold-construction ladder n=10^4..10^6 and
# the BenchmarkJobThroughput multi-run serving row — runs/sec at pool
# saturation) and the PA core's router and construction rows
# (BenchmarkRouterSolve/Verify, BenchmarkBuildInfra), snapshotted to a benchstat-friendly BENCH_$(PR).json for the
# perf trajectory. Replay into benchstat with: jq -r '.raw[]' BENCH_$(PR).json
bench:
	$(GO) test -run='^$$' -bench='BenchmarkEngine|BenchmarkNetworkSetup|BenchmarkJobThroughput|BenchmarkRouter|BenchmarkBuildInfra' -benchmem -benchtime=5x -count=3 ./internal/congest/ ./internal/bench/ ./internal/core/ \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchsnap -o BENCH_$(PR).json -note "$(BENCH_NOTE)"

# One-iteration pass over every benchmark in the repo: keeps benchmark code
# compiling and running between perf PRs (nightly CI).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# benchstat comparison of two committed benchmark snapshots (nightly CI
# appends the output to its job summary for the perf trajectory). Falls
# back to naming the raw snapshots when jq/benchstat are unavailable.
# Snapshot ledger note: there is deliberately no BENCH_8.json — PR 8 was
# robustness-only (fault injection) and changed no perf surface, so the
# trajectory steps BENCH_7 -> BENCH_9 -> BENCH_10 -> BENCH_15 -> BENCH_16 ->
# BENCH_17 (no engine snapshot was taken between BENCH_10 and BENCH_15).
# Without an installed benchstat the `go run` fallback runs with module
# lookups off (GOPROXY=off), so it never reaches for the module proxy: an
# offline host names the raw snapshots at once.
BENCH_OLD ?= BENCH_16.json
BENCH_NEW ?= BENCH_17.json
bench-compare:
	@if ! command -v jq >/dev/null 2>&1; then \
		echo "bench-compare: jq unavailable; raw snapshots: $(BENCH_OLD) $(BENCH_NEW)"; exit 0; fi; \
	jq -r '.raw[]' $(BENCH_OLD) > /tmp/bench_old.txt; \
	jq -r '.raw[]' $(BENCH_NEW) > /tmp/bench_new.txt; \
	echo "benchstat $(BENCH_OLD) vs $(BENCH_NEW):"; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/bench_old.txt /tmp/bench_new.txt; \
	else \
		GOPROXY=off $(GO) run golang.org/x/perf/cmd/benchstat@latest /tmp/bench_old.txt /tmp/bench_new.txt 2>/dev/null \
		|| echo "bench-compare: benchstat unavailable; raw snapshots: $(BENCH_OLD) $(BENCH_NEW)"; \
	fi; \
	echo ""; \
	echo "setup-storm allocs/op (BenchmarkEngineSetup, n=10k torus; the phase-setup trajectory — proc=shared is the one live row, scratch=false/true appear only in snapshots older than the []Proc form's removal):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngineSetup/family=torus' \
			| awk '{printf "    %-55s %s allocs/op\n", $$1, $$(NF-1)}' | sort -u; \
	done; \
	echo ""; \
	echo "network-setup ms/op (BenchmarkNetworkSetup ladder; the cold-construction trajectory):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkNetworkSetup/' \
			| awk '{printf "    %-40s %.1f ms/op  (%s allocs/op)\n", $$1, $$3/1e6, $$(NF-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkNetworkSetup/' || echo "    (no BenchmarkNetworkSetup rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "jobs throughput (BenchmarkJobThroughput; the multi-run serving trajectory):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkJobThroughput/' \
			| awk '{for (i=2; i<=NF; i++) if ($$i == "runs/sec") printf "    %-40s %s runs/sec\n", $$1, $$(i-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkJobThroughput/' || echo "    (no BenchmarkJobThroughput rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "skewed families (BenchmarkEngine star/powerlaw; ns/round and the shard-max/mean imbalance metric):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=(star|powerlaw)/' \
			| awk '{line = "    " $$1; for (i=2; i<=NF; i++) { if ($$i == "ns/round") line = line sprintf("  %s ns/round", $$(i-1)); if ($$i == "shard-max/mean") line = line sprintf("  %sx shard-max/mean", $$(i-1)) } print line}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkEngine/family=(star|powerlaw)/' || echo "    (no skewed-family rows in this snapshot)"; \
	done; \
	echo ""; \
	echo "bytes per edge slot (BenchmarkEngine bytes/slot; resident slot-array memory, Network.MemFootprint):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=' \
			| awk '{for (i=2; i<=NF; i++) if ($$i == "bytes/slot") printf "    %-55s %s bytes/slot\n", $$1, $$(i-1)}' | sort -u; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngine/family=' | grep -q 'bytes/slot' \
			|| echo "    (no bytes/slot metric in this snapshot — pre-PR-9 layout: 120 B of Incoming arrays + 16 B of int64 stamps per slot)"; \
	done; \
	echo ""; \
	echo "sparse-activity rounds (BenchmarkEngineSparse; ns/round at the row's awake fraction — BENCH_10 rows carry mode=sparse/dense, where mode=dense forced a full-range scan that no longer exists; later rows are the one bitmap-scheduled loop):"; \
	for f in $(BENCH_OLD) $(BENCH_NEW); do \
		echo "  $$f:"; \
		jq -r '.raw[]' $$f | grep -E 'BenchmarkEngineSparse/' \
			| awk '{line = "    " $$1; for (i=2; i<=NF; i++) { if ($$i == "ns/round") line = line sprintf("  %s ns/round", $$(i-1)); if ($$i == "awake%") line = line sprintf("  %s awake%%", $$(i-1)) } print line}' | sort -u; \
		jq -r '.raw[]' $$f | grep -qE 'BenchmarkEngineSparse/' \
			|| echo "    (no sparse-rounds rows — sparse execution landed in PR 10; BENCH_9.json and earlier are dense-only baselines)"; \
	done

# Allocation regression gate (nightly CI): the engine's steady-state round
# loop must stay allocation-free on the sequential engine and within pool
# overhead on the parallel one, and phase setup must stay at its two
# pinned workload-side allocations (the closure and counter documented on
# BenchmarkEngineSetup). Ceilings carry small headroom over the pinned
# values (0 / 31 / 52 / 2) so scheduler wobble in the pool rows doesn't
# flake the gate; a layout or setup regression blows straight past them.
# The BenchmarkEngineSparse rows extend the gate to sparse execution: a
# whole multi-thousand-round sequential phase is pinned at literally 0
# allocs/op (the bitmap drain and the dirty merge run in preallocated
# state), and the parallel rows stay within the same pool overhead as the
# dense storm (29 measured, 40 ceiling).
# BenchmarkRouterSolve extends the gate to the Algorithm 1 router: one
# core/solve run on reused per-node records, 3 allocs/op measured at
# 200 iterations (5 ceiling). The map-based router it replaced made
# 135,574 per run. BenchmarkRouterVerify gates the Algorithm 2 verify run,
# whose nodes park on one chained WakeAt timer each: 1 alloc/op measured at
# 200 iterations (2 ceiling), the engine's reused timer heap adding none.
# BenchmarkBuildInfra gates one whole randomized PA construction on the
# same instance (claim waves sealed into the part table, block setups,
# verify runs): 9,301 allocs/op measured at 200 iterations (9,400 ceiling);
# with per-node maps in the table and the claim procs it made 20,343.
bench-allocs-check:
	@{ $(GO) test -run='^$$' -bench='^BenchmarkEngine$$|^BenchmarkEngineSetup$$|^BenchmarkEngineSparse$$' -benchmem -benchtime=5x ./internal/congest/ \
		&& $(GO) test -run='^$$' -bench='^Benchmark(Router(Solve|Verify)|BuildInfra)$$' -benchmem -benchtime=200x ./internal/core/; } \
		| tee /tmp/bench_allocs.txt \
		| awk ' \
		/^Benchmark/ { \
			limit = -1; \
			if ($$1 ~ /^BenchmarkEngineSetup\//) { if ($$1 ~ /proc=shared/) limit = 4 } \
			else if ($$1 ~ /^BenchmarkEngineSparse\//) { \
				if ($$1 ~ /workers=1($$|-)/) limit = 0; \
				else if ($$1 ~ /workers=4($$|-)/) limit = 40; \
			} \
			else if ($$1 ~ /^BenchmarkRouterSolve($$|-)/) { limit = 5; router++ } \
			else if ($$1 ~ /^BenchmarkRouterVerify($$|-)/) { limit = 2; verify++ } \
			else if ($$1 ~ /^BenchmarkBuildInfra($$|-)/) { limit = 9400; build++ } \
			else if ($$1 ~ /^BenchmarkEngine\//) { \
				if ($$1 ~ /workers=1($$|-)/) limit = 2; \
				else if ($$1 ~ /workers=4($$|-)/) limit = 40; \
				else if ($$1 ~ /workers=8($$|-)/) limit = 64; \
			} \
			if (limit < 0) next; \
			allocs = ""; \
			for (i = 2; i <= NF; i++) if ($$i == "allocs/op") allocs = $$(i-1); \
			if (allocs == "") next; \
			checked++; \
			if (allocs + 0 > limit) { printf "bench-allocs-check: %s at %s allocs/op exceeds pinned ceiling %d\n", $$1, allocs, limit; fail = 1 } \
		} \
		END { \
			if (checked == 0) { print "bench-allocs-check: no benchmark rows parsed"; exit 1 } \
			if (router == 0) { print "bench-allocs-check: no BenchmarkRouterSolve row parsed"; exit 1 } \
			if (verify == 0) { print "bench-allocs-check: no BenchmarkRouterVerify row parsed"; exit 1 } \
			if (build == 0) { print "bench-allocs-check: no BenchmarkBuildInfra row parsed"; exit 1 } \
			if (fail) exit 1; \
			printf "bench-allocs-check: %d rows within pinned allocs/op ceilings\n", checked \
		}'

# Every package must carry its package comment in a doc.go file, so
# `go doc` stays useful and docs don't drift into scattered lead files.
# Run in CI on every push/PR (part of `make check`).
docs-check:
	@fail=0; \
	for d in internal/*/ cmd/*/; do \
		if [ ! -f "$$d"doc.go ]; then \
			echo "docs-check: $${d}doc.go missing"; fail=1; \
		elif ! grep -Eq '^// (Package|Command) ' "$$d"doc.go; then \
			echo "docs-check: $${d}doc.go lacks a '// Package ...' comment"; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-check: all packages carry doc.go package comments"; \
	exit $$fail

check: build vet fmt-check docs-check test-race test-e2ebench
