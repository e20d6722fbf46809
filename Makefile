# Developer entry points. `make check` is the pre-commit gate; it runs
# scripts/check.sh, which lists every gate once. The smoke/golden/... targets
# below run single gates for quick one-off checks.

GO ?= go

.PHONY: all build fmt vet test test-race test-short smoke golden skip-smoke fuzz-smoke ui-smoke sample-smoke cover check bench-all profile clean

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

# Every benchmark in the repo, one iteration each (smoke, not measurement).
# This also runs the one benchmark that gates itself:
# BenchmarkSampledSpeedup fails below 5x the serial detailed simcycles/s
# measured in the same process. Performance claims are measured with the
# interleaved A/B of bench/ (bench/README.md); the allocs/op ceiling is a
# test (TestAllocCeiling in internal/technique).
bench-all:
	$(GO) test -bench=. -benchtime=1x ./...

# CPU and allocation profiles of the three pipeline variants, plus the CPU
# profile of an IR fast-forward pass (both goroutines: the emulator with its
# inline warming, and the reuse-buffer warmer), written to profiles/ for
# `go tool pprof` spelunking (see docs/performance.md for how to read them
# and what the current hot paths are).
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkSimBase$$' -benchtime 5x \
		-cpuprofile profiles/base.cpu.pprof -memprofile profiles/base.mem.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkSimIR$$' -benchtime 5x \
		-cpuprofile profiles/ir.cpu.pprof -memprofile profiles/ir.mem.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkSimVP$$' -benchtime 5x \
		-cpuprofile profiles/vp.cpu.pprof -memprofile profiles/vp.mem.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkFastForward/ir$$' -benchtime 5x \
		-cpuprofile profiles/ff-ir.cpu.pprof ./internal/sample
	@echo "profiles written to profiles/ (go tool pprof -top profiles/ir.cpu.pprof)"

clean:
	$(GO) clean ./...
	rm -f cover.out
