# Developer/CI entry points. `make ci` is the gate: a gofmt check over
# the tracked Go files, go vet, build, the determinism lint sweep
# (detlint), the full test suite under the race detector, the allocation
# gate for the simulation hot paths (run without -race, which would
# perturb the counts), a short hot-path benchmark smoke so ns/op
# regressions fail fast, the determinism smokes (fabric, batch, stream,
# model recovery, telemetry), a vet+test pass over the
# perfbench module (so the benchmark keeps compiling against the API),
# and a one-iteration benchmark pass (which also
# regenerates the paper's tables and figures once and exercises the
# attack and architecture-fingerprinting and topology-recovery stages at
# both worker counts via BenchmarkAttackStage, BenchmarkArchIDStage and
# BenchmarkTopoStage).

GO ?= go

# PR number stamped into the benchmark trajectory snapshot; bench-json
# refuses to run without it, so no earlier snapshot is overwritten.
BENCH_JSON ?= BENCH_PR$(BENCH_PR).json
# Key micro/campaign benches tracked across PRs.
BENCH_KEY = BenchmarkClassifyMNIST$$|BenchmarkTrainMNIST$$|BenchmarkTrainKernels|BenchmarkCacheAccess$$|BenchmarkEngineLoadHot$$|BenchmarkEngineLoadRange$$|BenchmarkBranchPredict$$|BenchmarkPMUMeasure$$|BenchmarkAttackStage|BenchmarkArchIDStage|BenchmarkTopoStage|BenchmarkMonitorStream

.PHONY: all build vet lint fmtcheck test race bench bench-json allocgate benchsmoke fabricsmoke batchsmoke streamsmoke recoversmoke obssmoke perfbenchcheck ci golden

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's determinism analyzer suite (detlint) over every
# package of the module.
lint:
	$(GO) run ./cmd/detlint ./...

# fmtcheck fails when any tracked Go file is not gofmt-clean. It lists
# tracked files rather than walking the tree, so build outputs that hold
# a Go module cache are never scanned.
fmtcheck:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# The root package's campaign tests take close to go test's default
# 10-minute per-package timeout under -race on a 2-vCPU host.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Snapshot the key benches into the perf trajectory file for this PR.
# Commit the result so the trajectory BENCH_*.json series stays populated.
bench-json:
	@test -n "$(BENCH_PR)" || { echo "bench-json: set BENCH_PR=<n> (the PR number to stamp)"; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_KEY)' -benchmem -benchtime=2s . \
		| $(GO) run ./cmd/benchjson -pr $(BENCH_PR) > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Allocation gate: the hot paths (Cache.Access, Engine.Load on a
# cached line, warm Engine.Branch/BranchRun, PMU.MeasureOnceInto steady
# state, the core's measured-run loop into a shard's preallocated
# profiles, the nil-Recorder telemetry hooks, and a warm training
# replica's per-sample pass) must stay at 0
# allocs/op. Networks that are never trained must allocate only what
# they use: the default zoo's victims their weights (AllocBound in
# archid), and an unrealizable recovered stack almost nothing, since
# it is refused before any weight is drawn (AllocBound in topo).
# Registering a zoo plans its stacks and draws no weights (AllocBound
# in nn).
allocgate:
	$(GO) test -run 'ZeroAlloc|AllocBound' ./internal/march/... ./internal/hpc ./internal/core ./internal/obs ./internal/nn ./internal/archid ./internal/topo

# Fast hot-path smoke: catches order-of-magnitude regressions in seconds.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheAccess$$|BenchmarkClassifyMNIST$$' -benchtime=100x .

# Multi-process determinism smoke for the distributed audit fabric: the
# same campaign is run through the CLI in-process (-processes 0) and at
# -processes 1 and -processes 2, and the raw distribution CSVs must be
# byte-identical — in-process and fabric campaigns share one report
# tail. (The fabric's full fault-injection suite runs under -race as
# part of `race`.)
fabricsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) build -o $$tmp/shardworker ./cmd/shardworker; \
	$(GO) build -o $$tmp/evaluate ./cmd/evaluate; \
	for procs in 0 1 2; do \
		$$tmp/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
			-processes $$procs -worker-bin $$tmp/shardworker -csv $$tmp/p$$procs.csv >/dev/null; \
	done; \
	cmp $$tmp/p0.csv $$tmp/p1.csv; \
	cmp $$tmp/p1.csv $$tmp/p2.csv; \
	echo "fabricsmoke: processes=0, 1 and 2 distributions are byte-identical"

# Window-size determinism smoke: the same monitor campaign is run to
# exhaustion through the CLI at -batch 1 and -batch 8 and the raw
# distribution CSVs must be byte-identical — every run is measured in
# its own counter interval, so the window size moves only the monitor's
# look cadence, never an observation.
batchsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) run ./cmd/monitor -dataset mnist -classes 1,2 -budget 30 -workers 2 -seed 17 \
		-no-stop -batch 1 -csv $$tmp/b1.csv >/dev/null; \
	$(GO) run ./cmd/monitor -dataset mnist -classes 1,2 -budget 30 -workers 2 -seed 17 \
		-no-stop -batch 8 -csv $$tmp/b8.csv >/dev/null; \
	cmp $$tmp/b1.csv $$tmp/b8.csv; \
	echo "batchsmoke: batch=1 and batch=8 monitor distributions are byte-identical"

# Streaming-monitor determinism smoke: the same campaign is run through
# cmd/monitor to exhaustion (-no-stop) and through cmd/evaluate, and the
# raw distribution CSVs must be byte-identical — the stream seam
# reorders nothing and loses nothing.
streamsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-csv $$tmp/batch.csv >/dev/null; \
	$(GO) run ./cmd/monitor -dataset mnist -classes 1,2 -budget 30 -workers 2 -seed 17 \
		-no-stop -csv $$tmp/stream.csv >/dev/null; \
	cmp $$tmp/batch.csv $$tmp/stream.csv; \
	echo "streamsmoke: streamed-to-exhaustion and batch distributions are byte-identical"

# Model-recovery determinism smoke: cmd/archid and cmd/topo are each run
# at -workers 1, 2 and 3 (3 splits the per-network reference
# measurements unevenly) with the same seed, and cmd/archid -defense
# constant-time (the envelope-padded victims) at -workers 1 and 3. The
# JSON results must be byte-identical — every recovery observation
# derives from the seed, never from scheduling.
recoversmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) build -o $$tmp/archid ./cmd/archid; \
	$(GO) build -o $$tmp/topo ./cmd/topo; \
	for w in 1 2 3; do \
		$$tmp/archid -max-inputs 4 -profile-runs 4 -attack-runs 2 -workers $$w -seed 17 \
			-json $$tmp/archid$$w.json >/dev/null; \
		$$tmp/topo -train-zoo 4 -holdout 3 -runs 3 -max-inputs 4 -workers $$w -seed 17 \
			-json $$tmp/topo$$w.json >/dev/null; \
	done; \
	for w in 1 3; do \
		$$tmp/archid -defense constant-time -max-inputs 4 -profile-runs 4 -attack-runs 2 -workers $$w -seed 17 \
			-json $$tmp/archid-ct$$w.json >/dev/null; \
	done; \
	for w in 2 3; do \
		cmp $$tmp/archid1.json $$tmp/archid$$w.json; \
		cmp $$tmp/topo1.json $$tmp/topo$$w.json; \
	done; \
	cmp $$tmp/archid-ct1.json $$tmp/archid-ct3.json; \
	echo "recoversmoke: archid (baseline, constant-time) and topo results are byte-identical across -workers 1, 2 and 3"

# Telemetry smoke: a fully-traced multi-process campaign must emit a
# schema-valid Chrome trace while leaving the distribution CSV
# byte-identical to the untraced run — telemetry is observational
# output only, never an input.
obssmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) build -o $$tmp/shardworker ./cmd/shardworker; \
	$(GO) build -o $$tmp/obsview ./cmd/obsview; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 2 -worker-bin $$tmp/shardworker -csv $$tmp/plain.csv >/dev/null; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 2 -worker-bin $$tmp/shardworker -csv $$tmp/traced.csv \
		-trace $$tmp/campaign.trace -obs $$tmp/campaign.jsonl >/dev/null; \
	cmp $$tmp/plain.csv $$tmp/traced.csv; \
	$$tmp/obsview -check $$tmp/campaign.trace; \
	test -s $$tmp/campaign.jsonl; \
	echo "obssmoke: traced and untraced distributions are byte-identical; trace is schema-valid"

# Benchmark compile gate: perfbench/ is its own Go module built against
# the repro API, so vetting and testing it here makes a rename of any
# identifier the benchmark uses fail CI instead of the benchmark run.
# Read-only: nothing under perfbench/ is modified.
perfbenchcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate all four golden reports (end-to-end evaluation, attack
# stage, architecture fingerprinting, topology recovery) after a
# *deliberate* behavior change (review the diff before committing it).
golden:
	$(GO) test -run 'TestGoldenReport|TestAttackGoldenReport|TestArchIDGoldenReport|TestTopoGoldenReport|TestGoldenMonitor' -update .

ci: fmtcheck vet build lint race allocgate benchsmoke fabricsmoke batchsmoke streamsmoke recoversmoke obssmoke perfbenchcheck bench
