package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// SweepCell names one simulation in a sweep: a (benchmark, configuration)
// pair, optionally narrowed to one sampled interval (or widened to a whole
// sampled plan) by Sample.
type SweepCell struct {
	Bench string
	Cfg   core.Config
	// Sample, when non-nil, makes this a sampled cell: Index ≥ 0 simulates
	// one interval of the plan (the unit of parallel fan-out), Index ==
	// WholeProgram runs the full plan serially inside the cell. Nil cells are
	// plain full-program simulations — unless Runner.Sample is set, which
	// samples them transparently.
	Sample *SampleSpec
}

// SweepResult is the outcome of one cell. Exactly one of Stats/Err is
// meaningful: Err is nil on success, and a cell skipped because the sweep's
// context was already cancelled carries that context error.
type SweepResult struct {
	Bench string
	Cfg   core.Config
	Stats core.Stats
	// Interval carries the per-interval measurement for sampled interval
	// cells (Sample.Index ≥ 0); nil otherwise.
	Interval *sample.IntervalResult
	// Summary carries the stitched summary of a whole-plan sampled cell
	// (Sample.Index == WholeProgram, or a plain cell under Runner.Sample);
	// nil otherwise.
	Summary *sample.Summary
	// Attempts records which attempt produced this result: 0 for a cache
	// hit, 1 for a first-try success, n > 1 when n−1 transient failures were
	// retried. It makes retried interval cells auditable — a stitched
	// summary can report exactly which intervals needed retries.
	Attempts int
	Err      error
}

// Grid builds the cross product of benchmarks and configurations in
// bench-major order (every configuration of one benchmark is adjacent, the
// order experiment tables want).
func Grid(benches []string, cfgs []core.Config) []SweepCell {
	cells := make([]SweepCell, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for _, cfg := range cfgs {
			cells = append(cells, SweepCell{Bench: b, Cfg: cfg})
		}
	}
	return cells
}

// workers resolves the Runner's parallelism: Parallel=false pins the sweep
// to one worker (strictly serial, in cell order); otherwise Parallelism
// sets the worker count, defaulting to GOMAXPROCS.
func (r *Runner) workers() int {
	if !r.Parallel {
		return 1
	}
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep simulates every cell on a pool of workers and returns the results
// indexed exactly like cells — the result order is deterministic no matter
// how the work was scheduled. Each worker owns a private set of machines,
// one per benchmark, that it rewinds with Machine.Reset between
// configurations instead of building a new one;
// Machine.Reset's determinism contract is what makes the parallel sweep
// bit-identical to a serial one.
//
// Cancelling ctx stops the sweep promptly: cells not yet started complete
// with ctx's error, cells in flight observe the cancellation at their next
// deadline check. Per-cell failures never abort the sweep — callers decide
// what to do with partial results.
func (r *Runner) Sweep(ctx context.Context, cells []SweepCell) []SweepResult {
	results := make([]SweepResult, len(cells))
	n := r.workers()
	if n > len(cells) {
		n = len(cells)
	}
	if n < 1 {
		n = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// machines is worker-private (no locking) and lives for the
			// whole sweep, so a benchmark's machine is rebuilt at most once
			// per worker regardless of how many configurations it runs.
			machines := make(map[string]*core.Machine)
			for i := range jobs {
				c := cells[i]
				res := SweepResult{Bench: c.Bench, Cfg: c.Cfg}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					var out cellOutcome
					out, res.Attempts, res.Err = r.runCell(ctx, c, machines)
					res.Stats, res.Interval, res.Summary = out.stats, out.interval, out.summary
				}
				results[i] = res
				if r.OnResult != nil {
					r.OnResult(i, res)
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// cellOutcome is everything a cell can produce: the stats every cell has,
// plus the per-interval measurement of a sampled interval cell or the
// stitched summary of a whole-sampled cell.
type cellOutcome struct {
	stats    core.Stats
	interval *sample.IntervalResult
	summary  *sample.Summary
}

// cellKey builds the cache key for a cell. Non-sampled keys are byte-for-byte
// what they were before sampling existed, so persisted caches keyed on them
// stay valid; sampled cells append the plan key and interval index, so
// sampled and non-sampled results can never alias.
func (r *Runner) cellKey(bench string, cfg core.Config, spec *SampleSpec) string {
	key := fmt.Sprintf("%s|%s|%d|%d", bench, cfg.Key(), r.Scale, r.MaxInsts)
	if spec != nil {
		key = fmt.Sprintf("%s|%s|k%d", key, spec.Plan.Key(), spec.Index)
	}
	return key
}

// runCell is the cached, retrying simulation shared by Run, RunSampled and
// Sweep. The returned attempt count is 0 for a cache hit and otherwise the
// 1-based attempt that produced the result.
func (r *Runner) runCell(ctx context.Context, c SweepCell, machines map[string]*core.Machine) (cellOutcome, int, error) {
	spec := c.Sample
	if spec == nil && r.Sample != nil {
		// Transparent sampling: a plain cell under a sampling Runner becomes
		// a whole-plan sampled run.
		spec = &SampleSpec{Plan: *r.Sample, Index: WholeProgram}
	}
	key := r.cellKey(c.Bench, c.Cfg, spec)
	r.mu.Lock()
	if out, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return out, 0, nil
	}
	r.mu.Unlock()

	attempts := 1
	out, err := r.attemptCell(ctx, c.Bench, c.Cfg, spec, machines)
	for err != nil && IsTransient(err) && attempts <= r.Retries {
		attempts++
		out, err = r.attemptCell(ctx, c.Bench, c.Cfg, spec, machines)
	}
	if err != nil {
		return cellOutcome{}, attempts, err
	}
	r.mu.Lock()
	r.cache[key] = out
	r.mu.Unlock()
	return out, attempts, nil
}

// attemptCell dispatches one attempt to the cell's simulation mode.
func (r *Runner) attemptCell(ctx context.Context, bench string, cfg core.Config, spec *SampleSpec, machines map[string]*core.Machine) (cellOutcome, error) {
	switch {
	case spec == nil:
		s, err := r.attempt(ctx, bench, cfg, machines)
		return cellOutcome{stats: s}, err
	case spec.Index == WholeProgram:
		return r.attemptWholeSampled(ctx, bench, cfg, spec, machines)
	default:
		return r.attemptInterval(ctx, bench, cfg, spec, machines)
	}
}

// attempt performs one simulation, reusing (and on success keeping) a
// machine from the worker's pool. Panics are converted to errors so a bad
// run cannot take down a whole campaign, and the machine that panicked is
// dropped from the pool — its state is unknown mid-update, and the reset
// determinism contract only covers machines whose Run returned normally.
func (r *Runner) attempt(ctx context.Context, bench string, cfg core.Config, machines map[string]*core.Machine) (s core.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			delete(machines, bench)
			err = fmt.Errorf("harness: panic simulating %s under %s: %v", bench, cfg.Name(), p)
		}
	}()
	if r.runHook != nil {
		return r.runHook(bench, cfg)
	}
	m := machines[bench]
	if m != nil {
		if err := m.Reset(cfg); err != nil {
			return core.Stats{}, err
		}
	} else {
		w, err := workload.Get(bench)
		if err != nil {
			return core.Stats{}, err
		}
		p, err := w.Load(r.Scale)
		if err != nil {
			return core.Stats{}, err
		}
		m, err = core.New(p, cfg, r.MaxInsts)
		if err != nil {
			return core.Stats{}, err
		}
		if machines != nil {
			machines[bench] = m
		}
	}
	var obs *core.Observer
	if r.Obs != nil {
		obs = core.NewObserver(r.Obs.Interval, r.Obs.EventCap)
		m.AttachObserver(obs)
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	if err := runMachine(ctx, m); err != nil {
		return core.Stats{}, err
	}
	if r.Obs != nil {
		if err := r.Obs.export(bench, cfg, obs); err != nil {
			return core.Stats{}, err
		}
	}
	return m.Stats(), nil
}
