GO ?= go

.PHONY: all build test test-race fuzz-smoke sweep counterpoint-gate check ci docs-check analyze fix-audit bench benchjson experiments cache-smoke cache-ci bench-smoke region-gate serve-smoke shard-smoke shard-bench serve clean gitignore-check

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

# Short-budget native fuzzing over the four fuzz targets (assembler,
# mini-C compiler, whole-stack lockstep, checkpoint decoder). Each target
# gets a small time budget on top of replaying its committed corpus;
# failures minimize into testdata/fuzz/ automatically.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRandomProgramsLockstep$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/emu -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME)

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

# Parallel-region identity gate: a K-way parallel-region run must
# stitch to the bit-identical counter map of a sequential run, and to
# the architectural results (committed count, output) of one continuous
# detailed run of the same budget. See internal/experiments/regions.go.
region-gate:
	$(GO) test ./internal/experiments -run '^TestRegionStitchedIdentityGate$$' -count=1 -v

# Sweep-service smoke gate: build and start a real vcaserved, submit a
# tiny sweep over HTTP, assert /healthz + /readyz + /metrics and that
# the streamed NDJSON results are byte-identical to a direct in-process
# simcache.Runner run, then SIGTERM and require a clean drain (exit 0).
# See docs/SERVICE.md.
serve-smoke:
	$(GO) run ./internal/tools/servesmoke

# Sharded-fabric smoke gate: build vcaserved, start 2 workers + router
# (+ a single daemon as reference), and assert over real processes that
# the merged stream is byte-identical to a single daemon's, that two
# tenants' identical sweeps cost the FLEET exactly one simulation per
# distinct cell (aggregated /metrics: misses == simulations), and that
# SIGKILLing a worker mid-sweep loses and duplicates nothing. See
# docs/SERVICE.md "Sharded deployment".
shard-smoke:
	$(GO) run ./internal/tools/shardsmoke

# Honest sharded-throughput measurement (1 vs 2 workers + cache-affine
# replay), printed as JSON for EXPERIMENTS.md; never asserted, because
# wall-clock scaling depends on host cores.
shard-bench:
	$(GO) run ./internal/tools/shardsmoke -bench

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

# Extended gate: static checks, the lint suite, the race suite, the
# fuzz smoke, the cache round-trip smoke, the parallel-region identity
# gate, the counter-oracle gate, and the sweep-service smoke. Slower
# than `make test`; run before sending a change.
check: docs-check analyze gitignore-check test-race fuzz-smoke cache-smoke region-gate counterpoint-gate serve-smoke shard-smoke

# Continuous-integration gate: everything check runs, plus the
# fixed-seed verification sweep, the run-twice cache round trip, and the
# throughput smoke gate (detailed + functional engines).
ci: build docs-check analyze gitignore-check test-race fuzz-smoke cache-smoke region-gate counterpoint-gate serve-smoke shard-smoke sweep cache-ci bench-smoke

# Documentation gate: all Go code gofmt-clean (examples included),
# go vet over everything, and no broken relative links in any *.md.
docs-check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./internal/tools/linkcheck

# Simulator throughput microbenchmarks (ns/inst, simMIPS, allocs/inst).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimThroughput|BenchmarkTable1Baseline|BenchmarkCorePipeline|BenchmarkVCAEvictUnderPressure|BenchmarkCosimStep' -benchmem .

# Throughput smoke gate (wired into `make ci`): BenchmarkSimThroughput at
# a fixed -benchtime, best-of-3, compared against the committed baseline
# (bench_smoke_baseline.json). Fails on an allocs/inst regression above
# the PR-1 steady-state floor or a >25% ns/inst regression.
bench-smoke:
	$(GO) run ./internal/tools/benchsmoke -baseline bench_smoke_baseline.json

# Regenerate the committed throughput report for this tree. Bump the
# target filename when the tree's performance character changes; older
# BENCH_N.json files stay committed as the trajectory.
benchjson:
	$(GO) run ./cmd/experiments -benchjson BENCH_5.json

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
