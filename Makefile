# Developer entry points. `make check` is the pre-commit gate; it runs
# scripts/check.sh, which lists every gate once. The smoke/golden/... targets
# below run single gates for quick one-off checks.

GO ?= go

.PHONY: all build fmt vet test test-race test-short smoke golden skip-smoke fuzz-smoke ui-smoke sample-smoke cover check bench bench-all bench-check profile clean

all: build

build:
	$(GO) build ./...

# Formatting gate: fails (and lists the offenders) if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite; the harness runs benchmarks in
# parallel goroutines, so this exercises the Runner's locking for real.
test-race:
	$(GO) test -race ./...

# Quick loop: skips the long fault-injection and full-kernel paths.
test-short:
	$(GO) test -short ./...

# Deterministic fault-injection smoke campaign (seed fixed so the output
# is byte-identical run to run; exit status is the campaign verdict).
smoke:
	$(GO) run ./cmd/vpir-faults -seed 1 -campaign smoke

# Golden-result corpus: every benchmark x every registered technique
# against the snapshots in testdata/golden (the cell list auto-enumerates
# the technique registry, and a completeness check fails any registered
# name without a committed snapshot). Runs inside `make test` too; this target
# names it for quick one-off checks. After a
# deliberate core change, regenerate with:
#   $(GO) test -run TestGoldenCorpus -update . && git diff testdata/golden
golden:
	$(GO) test -run 'TestGoldenCorpus' .

# Skip-invariance smoke: the same corpus forced through the legacy
# cycle-by-cycle loop (VPIR_NO_SKIP=1) must reproduce identical numbers —
# the quiescence-aware skipper's invisibility contract (docs/performance.md).
skip-smoke:
	VPIR_NO_SKIP=1 $(GO) test -run 'TestGoldenCorpus' -count 1 .

# Short coverage-guided fuzz runs of the assembler and the end-to-end
# RunSource path: both must never panic on arbitrary input. New crashers
# land in testdata/fuzz/ as permanent regression seeds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzRunSource -fuzztime 10s .

# Dashboard smoke gate: boot a real vpir-server binary on an ephemeral
# port, fetch the embedded UI assets, run /v1/trace for a golden config
# twice (shape-validated; the repeat must be a byte-identical cache HIT),
# then SIGTERM and require a clean drain. See docs/observability.md.
ui-smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/vpir-server" ./cmd/vpir-server && \
	$(GO) run ./scripts/uismoke -bin "$$tmp/vpir-server"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# Sampled-simulation smoke gate: on two kernels, a 100%-coverage plan must
# reproduce the non-sampled run bit for bit, and a sparse plan's stitched
# IPC must land within tolerance of the full-detail IPC. See
# docs/sampling.md for the method these properties pin down.
sample-smoke:
	$(GO) run ./scripts/samplesmoke

# Total-coverage gate: fails below the 75% floor. Writes cover.out for
# `go tool cover -html=cover.out` spelunking.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { if (t+0 < 75) { print "cover: $$total% is below the 75% floor"; exit 1 } }'

check:
	sh scripts/check.sh

# Simulator throughput benchmarks, recorded as the perf baseline: the text
# goes to BENCH_baseline.txt (benchstat-compatible) and a JSONL rendering
# to BENCH_baseline.json. The observability-overhead budget in
# docs/observability.md is checked against this baseline.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkEmu' -benchmem . | tee BENCH_baseline.txt
	$(GO) run ./cmd/vpir-metrics -bench2json BENCH_baseline.txt > BENCH_baseline.json

# Every benchmark in the repo, one iteration each (smoke, not measurement).
bench-all:
	$(GO) test -bench=. -benchtime=1x ./...

# Perf regression gate: re-runs the simulator throughput benchmarks and
# fails if simcycles/s regressed by more than 10% against the committed
# BENCH_baseline.json, or if any benchmark allocates more than 10,000
# allocs/op in absolute terms (the hot loops are allocation-free; the
# remaining allocations are machine construction and the functional
# pre-run). Refresh the baseline with `make bench` after a deliberate
# performance change. BenchmarkSampledSpeedup then runs standalone: it
# self-gates at 5x effective simcycles/s over serial detailed simulation on
# a paper-scale workload, and stays out of the baseline because its
# interval-oracle allocations are by design far above the alloc ceiling.
bench-check:
	@tmp="$$(mktemp -d)"; \
	$(GO) test -run '^$$' -bench 'BenchmarkSim|BenchmarkEmu' -benchmem . > "$$tmp/bench.txt" \
		|| { cat "$$tmp/bench.txt"; rm -rf "$$tmp"; exit 1; }; \
	$(GO) run ./cmd/vpir-metrics -bench2json "$$tmp/bench.txt" > "$$tmp/bench.json" \
		|| { rm -rf "$$tmp"; exit 1; }; \
	$(GO) run ./cmd/vpir-metrics -compare -threshold 0.10 -units simcycles/s \
		-max-allocs 10000 BENCH_baseline.json "$$tmp/bench.json"; \
	status=$$?; rm -rf "$$tmp"; \
	[ $$status -eq 0 ] || exit $$status; \
	$(GO) test -run '^$$' -bench 'BenchmarkSampledSpeedup' -benchtime 1x .

# CPU and allocation profiles of the three pipeline variants, written to
# profiles/ for `go tool pprof` spelunking (see docs/performance.md for how
# to read them and what the current hot paths are).
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkSimBase$$' -benchtime 5x \
		-cpuprofile profiles/base.cpu.pprof -memprofile profiles/base.mem.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkSimIR$$' -benchtime 5x \
		-cpuprofile profiles/ir.cpu.pprof -memprofile profiles/ir.mem.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkSimVP$$' -benchtime 5x \
		-cpuprofile profiles/vp.cpu.pprof -memprofile profiles/vp.mem.pprof .
	@echo "profiles written to profiles/ (go tool pprof -top profiles/ir.cpu.pprof)"

clean:
	$(GO) clean ./...
	rm -f cover.out
