package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
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

// haltLoop is a registered test workload that halts after about 9 K
// instructions: a loop of eight-instruction iterations with a load, a store
// and a branch each, then the exit syscall.
const haltLoop = "halt-loop"

func init() {
	src := `
        .data
buf:    .word 0, 0, 0, 0
        .text
main:   la    $s0, buf
        li    $t0, 0
loop:   addiu $t0, $t0, 1
        andi  $t1, $t0, 12
        addu  $t2, $s0, $t1
        lw    $t3, 0($t2)
        addu  $t3, $t3, $t0
        sw    $t3, 0($t2)
        slti  $at, $t0, 1100
        bnez  $at, loop
        li    $v0, 10
        syscall
`
	if err := workload.Register(&workload.Workload{Name: haltLoop, Source: func(int) string { return src }, Golden: func(int) string { return "" }}); err != nil {
		panic(err)
	}
}

// serialSampled is the serial composition bench/probes.go replays:
// FastForward, then every interval in index order on one restored machine
// (IntervalSpec, IntervalOracle, NewRestored or ResetTo, DriveInterval),
// then Stitch.
func serialSampled(t *testing.T, bench string, cfg core.Config, plan sample.Plan, maxInsts uint64) *sample.Summary {
	t.Helper()
	w, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := sample.FastForward(p, cfg, plan, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	ivs := make([]sample.IntervalResult, len(ff.Checkpoints))
	var m *core.Machine
	for k := range ff.Checkpoints {
		ck, warm, measured, err := ff.IntervalSpec(k)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := sample.IntervalOracle(p, ck, warm+measured)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			m, err = core.NewRestored(p, cfg, ck.State, oracle)
		} else {
			err = m.ResetTo(cfg, ck.State, oracle)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ivs[k], err = sample.DriveInterval(context.Background(), m, ck, warm); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := sample.Stitch(ff, ivs)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRunSampledParallelDeterminism checks that the streamed run stitches
// exactly what the serial composition does, for every registered technique,
// with 1 worker and with 8 (interval scheduling differs, the summaries may
// not), across the plans where streaming differs most from collecting the
// whole pass first. Run under -race this also exercises the hand-out of
// checkpoints to the pool and the per-worker sampled machine pools.
func TestRunSampledParallelDeterminism(t *testing.T) {
	plans := []struct {
		name     string
		bench    string
		plan     sample.Plan
		maxInsts uint64
		// intervals is how many intervals the plan must stitch.
		intervals int
	}{
		// One interval covering the capped program: must equal Run.
		{"one interval", "go", sample.Plan{Interval: 1 << 40}, 5_000, 1},
		// The cap cuts the third interval to 1 000 of 2 500 instructions.
		{"cap cuts an interval", "go", sample.Plan{Interval: 2_500, Warmup: 300}, 6_000, 3},
		// halt-loop retires 8 810 instructions: the fourth checkpoint is
		// captured at 8 700, inside its own warmup, and is dropped; the
		// third interval ends at the halt.
		{"halt inside the last warmup", haltLoop, sample.Plan{Interval: 3_000, Warmup: 300}, 0, 3},
		// Warmup ≥ Interval at Every 1: every checkpoint waits for the pass
		// to retire past its Start while later ones are captured.
		{"checkpoints wait together", "go", sample.Plan{Interval: 800, Warmup: 2_000}, 4_000, 5},
	}
	for _, tech := range technique.All() {
		cfg, err := tech.Configure(technique.Knobs{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range plans {
			t.Run(tech.Name+"/"+pc.name, func(t *testing.T) {
				t.Parallel()
				want := serialSampled(t, pc.bench, cfg, pc.plan, pc.maxInsts)
				if want.Intervals != pc.intervals {
					t.Fatalf("plan stitched %d intervals, the case needs %d", want.Intervals, pc.intervals)
				}
				if pc.intervals == 1 {
					r := NewRunner()
					r.MaxInsts = pc.maxInsts
					full, err := r.Run(pc.bench, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !want.Exact || want.Stats != full {
						t.Fatalf("one-interval plan != full run:\n got %+v\nwant %+v", want.Stats, full)
					}
				}
				for _, par := range []int{1, 8} {
					r := NewRunner()
					r.MaxInsts = pc.maxInsts
					r.Parallelism = par
					got, err := r.RunSampled(context.Background(), pc.bench, cfg, pc.plan)
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if got.Stats != want.Stats || !reflect.DeepEqual(got.Extent, want.Extent) || got.ExitCode != want.ExitCode || got.Halted != want.Halted {
						t.Fatalf("parallelism %d stitched differently from the serial composition:\n got %+v\nwant %+v", par, got, want)
					}
				}
			})
		}
	}
}

// TestSampledRunHoldsOnlyCheckpointsInFlight watches every checkpoint the
// pass hands out through the fast-forward seam. During a RunSampled of 31
// intervals the checkpoints handed out and not yet finished never exceed the
// design's bound, and once the run returns every checkpoint state is garbage
// although the Runner is still referenced. A whole-program cell
// (Runner.Sample) runs each interval as its checkpoint arrives, so it holds
// one at a time.
func TestSampledRunHoldsOnlyCheckpointsInFlight(t *testing.T) {
	// Checkpoints every 1 000 instructions, each interval 200 long after a
	// 100-instruction warmup: 31 intervals below the cap.
	plan := sample.Plan{Interval: 200, Every: 5, Warmup: 100}
	cfg := core.IRChoice(false)
	type watch struct {
		live, peak, emitted int
		finalized           atomic.Int64
	}
	// hook wraps sample.Stream: it counts a checkpoint live from its
	// hand-out, attaches a finalizer to its state, and lets the caller say
	// when it is finished (after emit returns, or from OnResult).
	hook := func(w *watch, mu *sync.Mutex, finishOnReturn bool) func(context.Context, *prog.Program, core.Config, sample.Plan, uint64, func(sample.Checkpoint) error) (*sample.FFResult, error) {
		return func(ctx context.Context, p *prog.Program, cfg core.Config, plan sample.Plan, maxInsts uint64, emit func(sample.Checkpoint) error) (*sample.FFResult, error) {
			return sample.Stream(ctx, p, cfg, plan, maxInsts, func(ck sample.Checkpoint) error {
				runtime.SetFinalizer(ck.State, func(*core.RestoreState) { w.finalized.Add(1) })
				mu.Lock()
				w.emitted++
				w.live++
				w.peak = max(w.peak, w.live)
				mu.Unlock()
				err := emit(ck)
				if finishOnReturn {
					mu.Lock()
					w.live--
					mu.Unlock()
				}
				return err
			})
		}
	}
	// allFinalized collects garbage until every handed-out state is
	// finalized, or fails.
	allFinalized := func(t *testing.T, w *watch) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); w.finalized.Load() < int64(w.emitted); time.Sleep(time.Millisecond) {
			runtime.GC()
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d checkpoint states outlive the run", int64(w.emitted)-w.finalized.Load(), w.emitted)
			}
		}
	}

	for _, par := range []int{2, 8} {
		t.Run(fmt.Sprintf("RunSampled/parallelism=%d", par), func(t *testing.T) {
			var w watch
			var mu sync.Mutex
			r := NewRunner()
			r.MaxInsts = 30_001
			r.Parallelism = par
			r.ffHook = hook(&w, &mu, false)
			r.OnResult = func(int, SweepResult) {
				mu.Lock()
				w.live--
				mu.Unlock()
			}
			sum, err := r.RunSampled(context.Background(), "gcc", cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Intervals < 30 || w.emitted != sum.Intervals {
				t.Fatalf("%d intervals stitched, %d checkpoints handed out; want ≥ 30 of each", sum.Intervals, w.emitted)
			}
			// par workers each run one interval, par more wait in the queue,
			// and the pass may be blocked handing over one more. (Not yet
			// handed out, the pass holds at most the one checkpoint captured
			// before its Start: Warmup < Interval·Every.)
			if bound := 2*par + 1; w.peak > bound {
				t.Fatalf("%d checkpoints in flight at the peak, bound %d", w.peak, bound)
			}
			allFinalized(t, &w)
			runtime.KeepAlive(r)
		})
	}
	t.Run("whole-program cell", func(t *testing.T) {
		var w watch
		var mu sync.Mutex
		r := NewRunner()
		r.MaxInsts = 30_001
		r.Sample = &plan
		r.ffHook = hook(&w, &mu, true)
		if _, err := r.Run("gcc", cfg); err != nil {
			t.Fatal(err)
		}
		if w.emitted < 30 || w.peak != 1 {
			t.Fatalf("%d checkpoints handed out, %d at once; want ≥ 30, one at a time", w.emitted, w.peak)
		}
		allFinalized(t, &w)
		runtime.KeepAlive(r)
	})
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

// TestFastForwardPanicIsAnError: a fast-forward pass that panics must come
// back as an error naming the bench and config — never as a nil result with
// a nil error — from RunSampled and from a whole-program sampled cell alike.
// A failed pass is not cached, so each call runs it again.
func TestFastForwardPanicIsAnError(t *testing.T) {
	r := NewRunner()
	var calls atomic.Int64
	r.ffHook = func(context.Context, *prog.Program, core.Config, sample.Plan, uint64, func(sample.Checkpoint) error) (*sample.FFResult, error) {
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
	r.Sample = &plan
	res := r.Sweep(context.Background(), []SweepCell{{Bench: "compress", Cfg: cfg}})[0]
	check("whole-program cell", res.Err)
	if n := calls.Load(); n != 3 {
		t.Fatalf("fast-forward ran %d times, want once per call", n)
	}
}

// TestSampledCellsDoNotAliasPlainCells: the cache key of a sampled cell must
// differ from the plain cell's, and interval cells from each other.
func TestSampledCellsDoNotAliasPlainCells(t *testing.T) {
	r := NewRunner()
	cfg := core.DefaultConfig()
	plan := &sample.Plan{Interval: 100}
	plain := r.cellKey("compress", cfg, nil, 0)
	whole := r.cellKey("compress", cfg, plan, wholeProgram)
	iv0 := r.cellKey("compress", cfg, plan, 0)
	iv1 := r.cellKey("compress", cfg, plan, 1)
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
