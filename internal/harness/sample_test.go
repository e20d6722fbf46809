package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
)

// TestRunSampledMatchesFull is the end-to-end differential gate through the
// harness: a one-interval plan stitched from parallel workers must be
// bit-identical to the plain cached full run.
func TestRunSampledMatchesFull(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 30_000
	cfg := core.IRChoice(false)
	want, err := r.Run("compress", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.RunSampled(context.Background(), "compress", cfg, sample.Plan{Interval: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact || sum.Stats != want {
		t.Fatalf("sampled(1 interval) != full run:\n got %+v\nwant %+v", sum.Stats, want)
	}
}

// TestRunSampledParallelDeterminism stitches the same multi-interval plan
// with 1 worker and with 8 workers; the summaries must be bit-identical even
// though interval scheduling differs. Run under -race this also exercises
// the FF singleflight and the per-worker sampled machine pools.
func TestRunSampledParallelDeterminism(t *testing.T) {
	plan := sample.Plan{Interval: 6_000, Every: 1, Warmup: 500}
	cfg := core.HybridChoice(core.DefaultConfig().VP.Scheme, core.SB, core.ME, 0)

	serial := NewRunner()
	serial.MaxInsts = 36_000
	serial.Parallelism = 1
	s1, err := serial.RunSampled(context.Background(), "go", cfg, plan)
	if err != nil {
		t.Fatal(err)
	}

	par := NewRunner()
	par.MaxInsts = 36_000
	par.Parallelism = 8
	s2, err := par.RunSampled(context.Background(), "go", cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats != s2.Stats {
		t.Fatalf("parallel stitch differs from serial:\n got %+v\nwant %+v", s2.Stats, s1.Stats)
	}
	if s1.Intervals != s2.Intervals || s1.SampledInsts != s2.SampledInsts {
		t.Fatalf("summary shape differs: %+v vs %+v", s1, s2)
	}
}

// TestRunnerSampleTransparent checks Runner.Sample: plain cells run sampled,
// and with full coverage the stats stay exact.
func TestRunnerSampleTransparent(t *testing.T) {
	full := NewRunner()
	full.MaxInsts = 24_000
	cfg := core.DefaultConfig()
	want, err := full.Run("perl", cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	r.MaxInsts = 24_000
	r.Sample = &sample.Plan{Interval: 1 << 40}
	got, err := r.Run("perl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("transparent sampling diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestSweepAttemptsAudit pins the retry audit trail: a cell that succeeds on
// its third attempt reports Attempts == 3, a first-try success reports 1, and
// a cache hit reports 0.
func TestSweepAttemptsAudit(t *testing.T) {
	r := NewRunner()
	r.Retries = 3
	var calls atomic.Int64
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		if calls.Add(1) < 3 {
			return core.Stats{}, &Transient{Err: errors.New("flaky")}
		}
		return core.Stats{Cycles: 7}, nil
	}
	cells := []SweepCell{{Bench: "compress", Cfg: core.DefaultConfig()}}
	res := r.Sweep(context.Background(), cells)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d after two transient failures, want 3", res.Attempts)
	}

	// Same cell again: served from cache, audit says so.
	res = r.Sweep(context.Background(), cells)[0]
	if res.Err != nil || res.Attempts != 0 {
		t.Fatalf("cache hit reported Attempts = %d (err %v), want 0", res.Attempts, res.Err)
	}

	// A fresh cell that succeeds immediately reports attempt 1.
	other := core.IRChoice(false)
	res = r.Sweep(context.Background(), []SweepCell{{Bench: "compress", Cfg: other}})[0]
	if res.Err != nil || res.Attempts != 1 {
		t.Fatalf("first-try success reported Attempts = %d (err %v), want 1", res.Attempts, res.Err)
	}

	// Exhausted retries surface the attempt count too.
	r2 := NewRunner()
	r2.Retries = 1
	r2.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		return core.Stats{}, &Transient{Err: errors.New("always down")}
	}
	res = r2.Sweep(context.Background(), cells)[0]
	if res.Err == nil {
		t.Fatal("expected failure")
	}
	if res.Attempts != 2 {
		t.Fatalf("failed cell reported Attempts = %d, want 2 (initial + 1 retry)", res.Attempts)
	}
}

// TestFastForwardPanicIsAnError: a fast-forward pass that panics inside the
// singleflight must come back as an error naming the bench and config, to
// the first caller and to every later one that shares the cached pass —
// never as a nil result with a nil error.
func TestFastForwardPanicIsAnError(t *testing.T) {
	r := NewRunner()
	var calls atomic.Int64
	r.ffHook = func(*prog.Program, core.Config, sample.Plan, uint64) (*sample.FFResult, error) {
		calls.Add(1)
		panic("warming exploded")
	}
	cfg := core.IRChoice(false)
	plan := sample.Plan{Interval: 10_000}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error from a panicking fast-forward", what)
		}
		for _, want := range []string{"compress", cfg.Name(), "warming exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", what, err, want)
			}
		}
	}
	for i := range 2 {
		_, err := r.RunSampled(context.Background(), "compress", cfg, plan)
		check(fmt.Sprintf("RunSampled #%d", i+1), err)
	}
	res := r.Sweep(context.Background(), []SweepCell{{Bench: "compress", Cfg: cfg, Sample: &SampleSpec{Plan: plan, Index: 0}}})[0]
	check("interval cell", res.Err)
	if n := calls.Load(); n != 1 {
		t.Fatalf("fast-forward ran %d times, want once", n)
	}
}

// TestSampledCellsDoNotAliasPlainCells: the cache key of a sampled cell must
// differ from the plain cell's, and interval cells from each other.
func TestSampledCellsDoNotAliasPlainCells(t *testing.T) {
	r := NewRunner()
	cfg := core.DefaultConfig()
	plain := r.cellKey("compress", cfg, nil)
	whole := r.cellKey("compress", cfg, &SampleSpec{Plan: sample.Plan{Interval: 100}, Index: WholeProgram})
	iv0 := r.cellKey("compress", cfg, &SampleSpec{Plan: sample.Plan{Interval: 100}, Index: 0})
	iv1 := r.cellKey("compress", cfg, &SampleSpec{Plan: sample.Plan{Interval: 100}, Index: 1})
	keys := map[string]bool{plain: true, whole: true, iv0: true, iv1: true}
	if len(keys) != 4 {
		t.Fatalf("cache keys alias: %q %q %q %q", plain, whole, iv0, iv1)
	}
	if plain != fmt.Sprintf("compress|%s|%d|%d", cfg.Key(), r.Scale, r.MaxInsts) {
		t.Fatalf("plain key changed format: %q", plain)
	}
}

// TestRunSampledCachesIntervals: after a RunSampled, re-running performs no
// new simulations (all interval cells cached).
func TestRunSampledCachesIntervals(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 20_000
	plan := sample.Plan{Interval: 5_000}
	cfg := core.DefaultConfig()
	first, err := r.RunSampled(context.Background(), "m88ksim", cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	// All cells must now come from cache: observe via OnResult attempts.
	var nonCached atomic.Int64
	r.OnResult = func(i int, res SweepResult) {
		if res.Attempts != 0 {
			nonCached.Add(1)
		}
	}
	second, err := r.RunSampled(context.Background(), "m88ksim", cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if n := nonCached.Load(); n != 0 {
		t.Fatalf("%d interval cells were re-simulated on the second run", n)
	}
	if first.Stats != second.Stats {
		t.Fatalf("cached stitch differs: %+v vs %+v", second.Stats, first.Stats)
	}
}
