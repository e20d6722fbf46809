package harness

import (
	"context"
	"fmt"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// WholeProgram as a SampleSpec.Index means "run the whole sampled plan in
// this cell": fast-forward, simulate every interval serially, stitch. Indexes
// ≥ 0 name one interval, the unit of parallel fan-out.
const WholeProgram = -1

// SampleSpec attaches a sampling regime to a sweep cell.
type SampleSpec struct {
	Plan  sample.Plan
	Index int
}

// samplePoolSuffix separates sampled machines from plain ones in a worker's
// pool. NewRestored builds a machine with no instruction cap, so a Reset
// would stream it to the end of the program rather than to Runner.MaxInsts;
// a machine must never migrate between the populations.
const samplePoolSuffix = "\x00sample"

// ffEntry is one fast-forward pass, computed once per (bench, cfg, plan,
// scale, cap) under singleflight: every interval cell of the same plan shares
// the checkpoints, and a worker that loses the race blocks on the winner
// instead of redoing the functional run.
type ffEntry struct {
	once sync.Once
	prog *prog.Program
	ff   *sample.FFResult
	err  error
}

// fastForward returns the cached fast-forward pass for the cell's plan,
// running it on first use. The program image is loaded once alongside and
// shared — it is read-only after assembly, and both interval oracles and
// restored machines only ever copy from it.
func (r *Runner) fastForward(bench string, cfg core.Config, plan sample.Plan) (*prog.Program, *sample.FFResult, error) {
	key := fmt.Sprintf("%s|%s|%s|%d|%d", bench, cfg.Key(), plan.Key(), r.Scale, r.MaxInsts)
	r.mu.Lock()
	if r.ff == nil {
		r.ff = make(map[string]*ffEntry)
	}
	e, ok := r.ff[key]
	if !ok {
		e = &ffEntry{}
		r.ff[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		// A panic must land in e.err: Once counts a panicking Do as done, and
		// every later caller would otherwise get a nil result and no error.
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("harness: panic fast-forwarding %s under %s: %v", bench, cfg.Name(), p)
			}
		}()
		w, err := workload.Get(bench)
		if err != nil {
			e.err = err
			return
		}
		p, err := w.Load(r.Scale)
		if err != nil {
			e.err = err
			return
		}
		e.prog = p
		ff := sample.FastForward
		if r.ffHook != nil {
			ff = r.ffHook
		}
		e.ff, e.err = ff(p, cfg, plan, r.MaxInsts)
	})
	return e.prog, e.ff, e.err
}

// attemptInterval simulates one sampled interval on a pooled machine. Panics
// are converted to errors like attempt's, and the pooled sampled machine is
// dropped — its state is unknown mid-update.
func (r *Runner) attemptInterval(ctx context.Context, bench string, cfg core.Config, spec *SampleSpec, machines map[string]*core.Machine) (out cellOutcome, err error) {
	poolKey := bench + samplePoolSuffix
	defer func() {
		if p := recover(); p != nil {
			delete(machines, poolKey)
			err = fmt.Errorf("harness: panic simulating %s interval %d under %s: %v", bench, spec.Index, cfg.Name(), p)
		}
	}()
	p, ff, err := r.fastForward(bench, cfg, spec.Plan)
	if err != nil {
		return out, err
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	iv, err := r.runInterval(ctx, p, ff, cfg, spec.Index, machines, poolKey)
	if err != nil {
		return out, err
	}
	out.stats = iv.Stats
	out.interval = &iv
	return out, nil
}

// runInterval re-derives interval k's oracle, restores a pooled machine onto
// its checkpoint and drives the interval.
func (r *Runner) runInterval(ctx context.Context, p *prog.Program, ff *sample.FFResult, cfg core.Config, k int, machines map[string]*core.Machine, poolKey string) (sample.IntervalResult, error) {
	ck, warm, measured, err := ff.IntervalSpec(k)
	if err != nil {
		return sample.IntervalResult{}, err
	}
	oracle, err := sample.IntervalOracle(p, ck, warm+measured)
	if err != nil {
		return sample.IntervalResult{}, err
	}
	var m *core.Machine
	if machines != nil {
		m = machines[poolKey]
	}
	if m != nil {
		if err := m.ResetTo(cfg, ck.State, oracle); err != nil {
			return sample.IntervalResult{}, err
		}
	} else {
		m, err = core.NewRestored(p, cfg, ck.State, oracle)
		if err != nil {
			return sample.IntervalResult{}, err
		}
		if machines != nil {
			machines[poolKey] = m
		}
	}
	return sample.DriveInterval(ctx, m, ck, warm)
}

// attemptWholeSampled runs the entire sampled plan inside one cell: every
// interval in index order on the worker's pooled machine, then the stitch.
// This is the transparent-sampling path (Runner.Sample) where parallelism
// comes from the grid's other cells; RunSampled instead fans the intervals
// out as their own cells.
func (r *Runner) attemptWholeSampled(ctx context.Context, bench string, cfg core.Config, spec *SampleSpec, machines map[string]*core.Machine) (out cellOutcome, err error) {
	poolKey := bench + samplePoolSuffix
	defer func() {
		if p := recover(); p != nil {
			delete(machines, poolKey)
			err = fmt.Errorf("harness: panic in sampled run of %s under %s: %v", bench, cfg.Name(), p)
		}
	}()
	p, ff, err := r.fastForward(bench, cfg, spec.Plan)
	if err != nil {
		return out, err
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	ivs := make([]sample.IntervalResult, len(ff.Checkpoints))
	for k := range ff.Checkpoints {
		iv, err := r.runInterval(ctx, p, ff, cfg, k, machines, poolKey)
		if err != nil {
			return out, fmt.Errorf("harness: %s interval %d: %w", bench, k, err)
		}
		ivs[k] = iv
	}
	sum, err := sample.Stitch(ff, ivs)
	if err != nil {
		return out, err
	}
	out.stats = sum.Stats
	out.summary = sum
	return out, nil
}

// RunSampled executes one (benchmark, configuration) under the plan with the
// checkpoints as the unit of parallelism: one fast-forward pass, then every
// interval fans out across Sweep's worker pool as its own cell, and the
// results are stitched in index order — a deterministic merge no matter how
// the intervals were scheduled. Per-interval results are cached like any
// other cell, so a re-run after a partial failure only simulates the missing
// intervals.
func (r *Runner) RunSampled(ctx context.Context, bench string, cfg core.Config, plan sample.Plan) (*sample.Summary, error) {
	plan = plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	_, ff, err := r.fastForward(bench, cfg, plan)
	if err != nil {
		return nil, err
	}
	cells := make([]SweepCell, len(ff.Checkpoints))
	for k := range cells {
		cells[k] = SweepCell{Bench: bench, Cfg: cfg, Sample: &SampleSpec{Plan: plan, Index: k}}
	}
	results := r.Sweep(ctx, cells)
	ivs := make([]sample.IntervalResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("harness: %s interval %d: %w", bench, i, res.Err)
		}
		if res.Interval == nil {
			return nil, fmt.Errorf("harness: %s interval %d returned no result", bench, i)
		}
		ivs[i] = *res.Interval
	}
	return sample.Stitch(ff, ivs)
}
