package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
)

// SweepCell names one simulation in a sweep: a (benchmark, configuration)
// pair. Under Runner.Sample the cell is a whole-program sampled run.
type SweepCell struct {
	Bench string
	Cfg   core.Config
	// iv, set only by RunSampled, narrows the cell to one interval of a
	// streamed fast-forward pass.
	iv *interval
}

// SweepResult is the outcome of one cell. Exactly one of Stats/Err is
// meaningful: Err is nil on success, and a cell skipped because the sweep's
// context was already cancelled carries that context error.
type SweepResult struct {
	Bench string
	Cfg   core.Config
	Stats core.Stats
	// Interval carries the per-interval measurement of one interval of a
	// RunSampled pass; nil otherwise.
	Interval *sample.IntervalResult
	// Summary carries the stitched summary of a whole-program sampled cell
	// (a cell under Runner.Sample); nil otherwise.
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

// workers resolves the Runner's worker count: Parallelism, defaulting to
// GOMAXPROCS.
func (r *Runner) workers() int {
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
	r.pool(ctx, max(1, min(r.workers(), len(cells))), func(send func(int, SweepCell)) {
		for i, c := range cells {
			send(i, c)
		}
	}, func(i int, res SweepResult) { results[i] = res })
	return results
}

// pool is the one worker pool behind Sweep and RunSampled. It runs every cell
// feed sends on n workers and, as each finishes, passes its result to done
// and then to OnResult, with the index it was sent under. send blocks while
// every worker is busy and n cells are queued. A cell taken after ctx is
// cancelled completes with ctx's error unsimulated, so a cancelled feed
// drains the queue. pool returns once feed has returned and every cell sent
// has finished: its workers are joined on every path.
func (r *Runner) pool(ctx context.Context, n int, feed func(send func(int, SweepCell)), done func(int, SweepResult)) {
	type job struct {
		i int
		c SweepCell
	}
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// machines is worker-private (no locking) and lives as long as
			// the pool, so a benchmark's machine is rebuilt at most once per
			// worker regardless of how many cells it runs.
			machines := make(map[string]*core.Machine)
			for j := range jobs {
				res := SweepResult{Bench: j.c.Bench, Cfg: j.c.Cfg}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					var out cellOutcome
					out, res.Attempts, res.Err = r.runCell(ctx, j.c, machines)
					res.Stats, res.Interval, res.Summary = out.stats, out.interval, out.summary
				}
				done(j.i, res)
				if r.OnResult != nil {
					r.OnResult(j.i, res)
				}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	feed(func(i int, c SweepCell) { jobs <- job{i, c} })
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
// what they were before sampling existed; sampled cells (plan non-nil) append
// the plan key and the interval index (wholeProgram for a whole-program
// cell), so sampled and non-sampled results can never alias.
func (r *Runner) cellKey(bench string, cfg core.Config, plan *sample.Plan, k int) string {
	key := fmt.Sprintf("%s|%s|%d|%d", bench, cfg.Key(), r.Scale, r.MaxInsts)
	if plan != nil {
		key = fmt.Sprintf("%s|%s|k%d", key, plan.Key(), k)
	}
	return key
}

// runCell is the cached, retrying simulation shared by Run, RunSampled and
// Sweep. The returned attempt count is 0 for a cache hit and otherwise the
// 1-based attempt that produced the result.
func (r *Runner) runCell(ctx context.Context, c SweepCell, machines map[string]*core.Machine) (cellOutcome, int, error) {
	var key string
	switch {
	case c.iv != nil:
		key = r.cellKey(c.Bench, c.Cfg, &c.iv.plan, c.iv.ck.Index)
	case r.Sample != nil:
		key = r.cellKey(c.Bench, c.Cfg, r.Sample, wholeProgram)
	default:
		key = r.cellKey(c.Bench, c.Cfg, nil, 0)
	}
	r.mu.Lock()
	if out, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return out, 0, nil
	}
	r.mu.Unlock()

	attempts := 1
	out, err := r.attemptCell(ctx, c, machines)
	for err != nil && IsTransient(err) && attempts <= r.Retries {
		attempts++
		out, err = r.attemptCell(ctx, c, machines)
	}
	if err != nil {
		return cellOutcome{}, attempts, err
	}
	r.mu.Lock()
	r.cache[key] = out
	r.mu.Unlock()
	return out, attempts, nil
}

// attemptCell dispatches one attempt to the cell's simulation mode: one
// interval of a RunSampled pass, a whole-program sampled run under
// Runner.Sample, or a plain run.
func (r *Runner) attemptCell(ctx context.Context, c SweepCell, machines map[string]*core.Machine) (cellOutcome, error) {
	switch {
	case c.iv != nil:
		return r.attemptInterval(ctx, c.Bench, c.Cfg, c.iv, machines)
	case r.Sample != nil:
		return r.attemptWholeSampled(ctx, c.Bench, c.Cfg, *r.Sample, machines)
	default:
		s, err := r.attempt(ctx, c.Bench, c.Cfg, machines)
		return cellOutcome{stats: s}, err
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
		p, err := r.load(bench)
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
