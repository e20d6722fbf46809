#!/bin/sh
# Pre-commit gate (`make check` runs this script): gofmt, vet, build,
# race-enabled tests, the deterministic fault-injection smoke campaign (see
# docs/robustness.md), the golden corpus with and without cycle skipping,
# fuzz smoke, the dashboard smoke against a real server binary, and the
# sampled-simulation smoke. CPU and allocation profiles are a separate
# step: `make profile` (see docs/performance.md).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (full suite) =="
go test -race ./...

echo "== fault-injection smoke campaign =="
go run ./cmd/vpir-faults -seed 1 -campaign smoke

echo "== golden-result corpus =="
# Every benchmark x every registered technique against testdata/golden
# (the cell list enumerates the technique registry); a core change
# that shifts paper-relevant numbers fails here. Deliberate changes:
# go test -run TestGoldenCorpus -update . (then review the JSON diff).
go test -run 'TestGoldenCorpus' .

echo "== skip-invariance smoke (golden corpus under VPIR_NO_SKIP=1) =="
# The quiescence-aware cycle skipper must be invisible: the same corpus,
# forced through the legacy cycle-by-cycle loop, must reproduce the exact
# same numbers (see docs/performance.md).
VPIR_NO_SKIP=1 go test -run 'TestGoldenCorpus' -count 1 .

echo "== fuzz smoke (assembler + end-to-end RunSource) =="
go test -run '^$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm
go test -run '^$' -fuzz FuzzRunSource -fuzztime 10s .

echo "== ui smoke (embedded dashboard + /v1/trace against a real binary) =="
# Boot a real vpir-server on an ephemeral port, fetch the embedded UI,
# drive /v1/trace twice (shape-validated, byte-identical cache HIT on the
# repeat), then SIGTERM for a clean drain.
uitmp="$(mktemp -d)"
go build -o "$uitmp/vpir-server" ./cmd/vpir-server
if ! go run ./scripts/uismoke -bin "$uitmp/vpir-server"; then
    rm -rf "$uitmp"
    exit 1
fi
rm -rf "$uitmp"

echo "== sampled-simulation smoke (bit-identity + stitched-IPC tolerance) =="
# On two kernels: a 100%-coverage sampling plan must reproduce the
# non-sampled run bit for bit, and a sparse plan's stitched IPC must land
# within tolerance of the full-detail IPC (see docs/sampling.md).
go run ./scripts/samplesmoke

echo "check: all gates passed"
