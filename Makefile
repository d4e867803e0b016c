GO ?= go

.PHONY: all build test test-race fuzz-smoke sweep counterpoint-gate check ci docs-check analyze fix-audit bench experiments cache-smoke cache-ci serve-smoke perfbench-check serve clean gitignore-check

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: everything must build and every test must pass.
test:
	$(GO) test ./...

# Full suite under the race detector. The sweep-heavy packages run
# close to the default 10-minute package budget on small hosts once the
# race detector's overhead lands, so the budget is set explicitly.
test-race:
	$(GO) test -race -timeout 30m ./...

# Short-budget native fuzzing over the nine fuzz targets (assembler,
# mini-C compiler, whole-stack lockstep, checkpoint decoder, result-cache
# entry decoding beside a legacy index.json, results-stream line
# encoding against encoding/json, sweep-request admission, the router's
# reader of a worker's result line, fleet metric merging). Each target gets a small time budget on top
# of replaying its committed corpus; failures minimize into testdata/fuzz/
# automatically. Cache entries are kilobytes and every execution writes
# two files, so minimizing each new interesting entry under the default
# 60 s budget would use up the smoke budget; its minimization is capped.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRandomProgramsLockstep$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/emu -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/simcache -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzStreamLine$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWorkerResult$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzMetricsMerge$$' -fuzztime $(FUZZTIME)

# Fixed-seed config-space lockstep sweep (see docs/VERIFICATION.md).
sweep:
	$(GO) run ./cmd/experiments -sweep 25 -sweepseed 1

# Counter-oracle gate: evaluate every counterpoint predicate against
# the golden matrix (scheduler grid + windowed-SMT + restored cells)
# under the race detector. Fails on any refutation (an accounting bug)
# or any predicate that was vacuous across the whole matrix (an oracle
# with no teeth). See docs/VERIFICATION.md "Counter oracle".
counterpoint-gate:
	$(GO) run -race ./internal/tools/counterpointgate

# Result-cache round-trip smoke: hits must reproduce cold-run results
# bit for bit across the whole workload matrix.
cache-smoke:
	$(GO) test ./internal/simcache -run 'TestCacheRoundTrip' -count=1

# Result-cache CI round trip: run the same experiment twice against a
# fresh cache directory. The second pass must print byte-identical
# output and be served almost entirely (>= 90%) from the cache —
# cachecheck fails the build otherwise.
CACHECI_DIR := .simcache-ci
cache-ci:
	rm -rf $(CACHECI_DIR)
	mkdir -p $(CACHECI_DIR)
	$(GO) run ./cmd/experiments -fig4 -stop 10000 -cachedir $(CACHECI_DIR) \
		-cachestats $(CACHECI_DIR)/pass1.json > $(CACHECI_DIR)/pass1.out
	$(GO) run ./cmd/experiments -fig4 -stop 10000 -cachedir $(CACHECI_DIR) \
		-cachestats $(CACHECI_DIR)/pass2.json > $(CACHECI_DIR)/pass2.out
	cmp $(CACHECI_DIR)/pass1.out $(CACHECI_DIR)/pass2.out
	$(GO) run ./internal/tools/cachecheck -stats $(CACHECI_DIR)/pass2.json -min 0.9
	rm -rf $(CACHECI_DIR)

# Sweep-service smoke gate, both topologies over real processes: build
# vcaserved, start a single daemon, 2 workers and a router over them.
# The single daemon must answer /healthz + /readyz, stream NDJSON
# byte-identical to a direct in-process server.RunCells run, serve the
# runbook's /metrics series and drain cleanly on SIGTERM (exit 0). The
# router's merged stream must be byte-identical to the single daemon's,
# two tenants' identical sweeps must cost the FLEET exactly one
# simulation per distinct cell (aggregated /metrics: misses ==
# simulations), and SIGKILLing a worker mid-sweep must lose and
# duplicate nothing. See docs/SERVICE.md.
serve-smoke:
	$(GO) run ./internal/tools/shardsmoke

# Run the sweep service locally with defaults (docs/SERVICE.md).
serve:
	$(GO) run ./cmd/vcaserved

# Determinism & hot-path lint suite: every first-party analysis pass
# (internal/analyzers, docs/ANALYZERS.md) over the whole module. Zero
# findings is a hard gate in `make check` and `make ci`; the suite's
# clean-tree regression test pins the same property under `go test`.
analyze:
	$(GO) run ./internal/tools/analyze

# Triage mode for the lint suite: print every finding but exit 0, for
# working through a sweep after an analyzer or annotation change.
fix-audit:
	$(GO) run ./internal/tools/analyze -nofail

# Benchmark-harness gate: perfbench is a nested module (perfbench/go.mod)
# that imports the simulator's internal packages, so neither
# `go build ./...` nor `go vet ./...` at the root compiles it. Vet and
# test it in place, so that removing or renaming a symbol it uses fails
# here rather than in perfbench/run.sh.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Extended gate: static checks, the lint suite, the race suite, the
# fuzz smoke, the cache round-trip smoke, the counter-oracle gate, the
# sweep-service smoke (single daemon and sharded fleet) and the
# benchmark-harness build. Slower than `make test`; run before sending
# a change.
check: docs-check analyze gitignore-check test-race fuzz-smoke cache-smoke counterpoint-gate serve-smoke perfbench-check

# Continuous-integration gate: everything check runs, plus the
# fixed-seed verification sweep and the run-twice cache round trip.
# Host speed is not gated here: perfbench (perfbench/README.md) measures
# it as interleaved parent/change pairs, and the host-independent
# throughput checks (allocation floors, the fast engine's speedup floor)
# are tier-1 tests.
ci: build docs-check analyze gitignore-check test-race fuzz-smoke cache-smoke counterpoint-gate serve-smoke perfbench-check sweep cache-ci

# Documentation gate: all Go code gofmt-clean (examples included),
# go vet over everything, and no broken relative links in any *.md.
docs-check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./internal/tools/linkcheck

# Simulator throughput microbenchmarks (ns/inst, simMIPS, allocs/inst),
# the functional engine (fast-forward batches, whole-benchmark profiles
# per ABI, co-simulation steps), machine construction (B/op per
# core.New), result-cache fingerprint, key and hit costs, and one
# results-stream line (ns/op, allocs/op).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimThroughput|BenchmarkTable1Baseline|BenchmarkCorePipeline|BenchmarkCoreNew|BenchmarkVCAEvictUnderPressure|BenchmarkEmuFastRun|BenchmarkEmuProfile|BenchmarkCosimStep|BenchmarkConfigFingerprint|BenchmarkSimcacheKey|BenchmarkSimcacheHit|BenchmarkSimcachePut|BenchmarkStreamLine' -benchmem . ./internal/server

# Full paper evaluation at the default commit budget.
experiments:
	$(GO) run ./cmd/experiments -all

# Remove stray build and run artifacts. Everything removed here must
# also be covered by .gitignore (gitignore-check enforces this, and runs
# as part of `make check` and `make ci`).
clean:
	rm -f *.test *.prof *.pprof experiments_output.txt stats.json trace.json
	rm -f experiments vcaasm vcacc vcasim vcaserved
	rm -rf .simcache-ci

# Every artifact `make clean` removes must be git-ignored, so a build or
# experiment run can never dirty the tree.
gitignore-check:
	@for f in vca.test core.test cpu.prof heap.pprof experiments_output.txt \
	    stats.json trace.json experiments vcaasm vcacc vcasim vcaserved .simcache-ci/; do \
		git check-ignore -q "$$f" || { echo "gitignore-check: $$f is not covered by .gitignore"; exit 1; }; \
	done
	@echo "gitignore-check: all clean artifacts are ignored"
