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

// wholeProgram is the interval index in a whole-program sampled cell's cache
// key; indexes ≥ 0 name one interval of a RunSampled pass.
const wholeProgram = -1

// samplePoolSuffix separates sampled machines from plain ones in a worker's
// pool. NewRestored builds a machine with no instruction cap, so a Reset
// would stream it to the end of the program rather than to Runner.MaxInsts;
// a machine must never migrate between the populations.
const samplePoolSuffix = "\x00sample"

// interval is one checkpoint of a streamed fast-forward pass on its way to a
// worker. It holds the only reference the harness keeps to the checkpoint's
// state, which becomes garbage once the interval ends.
type interval struct {
	prog *prog.Program
	plan sample.Plan
	ck   sample.Checkpoint
}

// load assembles a benchmark at the Runner's scale.
func (r *Runner) load(bench string) (*prog.Program, error) {
	w, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	return w.Load(r.Scale)
}

// stream runs the fast-forward pass of (bench, cfg, plan) at the Runner's cap
// and hands each checkpoint to emit as soon as it is complete (see
// sample.Stream). A panic in the pass comes back as an error naming the bench
// and the configuration. Nothing of the pass is kept.
func (r *Runner) stream(ctx context.Context, p *prog.Program, bench string, cfg core.Config, plan sample.Plan, emit func(sample.Checkpoint) error) (ff *sample.FFResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			ff, err = nil, fmt.Errorf("harness: panic fast-forwarding %s under %s: %v", bench, cfg.Name(), v)
		}
	}()
	pass := sample.Stream
	if r.ffHook != nil {
		pass = r.ffHook
	}
	return pass(ctx, p, cfg, plan, r.MaxInsts, emit)
}

// simulateInterval re-derives the interval's oracle, restores the worker's
// pooled sampled machine onto its checkpoint and drives the interval. A
// panic becomes an error and drops the pooled machine: its state is unknown
// mid-update.
func (r *Runner) simulateInterval(ctx context.Context, bench string, cfg core.Config, iv *interval, machines map[string]*core.Machine) (res sample.IntervalResult, err error) {
	ck := &iv.ck
	poolKey := bench + samplePoolSuffix
	defer func() {
		if p := recover(); p != nil {
			delete(machines, poolKey)
			err = fmt.Errorf("harness: panic simulating %s interval %d under %s: %v", bench, ck.Index, cfg.Name(), p)
		}
	}()
	oracle, err := sample.IntervalOracle(iv.prog, ck, iv.plan.OracleLen(ck, r.MaxInsts))
	if err != nil {
		return res, err
	}
	m := machines[poolKey]
	if m != nil {
		err = m.ResetTo(cfg, ck.State, oracle)
	} else if m, err = core.NewRestored(iv.prog, cfg, ck.State, oracle); err == nil && machines != nil {
		machines[poolKey] = m
	}
	if err != nil {
		return res, err
	}
	return sample.DriveInterval(ctx, m, ck, ck.Start-ck.At)
}

// attemptInterval simulates one interval cell of a RunSampled pass, bounded
// by Runner.Timeout.
func (r *Runner) attemptInterval(ctx context.Context, bench string, cfg core.Config, iv *interval, machines map[string]*core.Machine) (out cellOutcome, err error) {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	res, err := r.simulateInterval(ctx, bench, cfg, iv, machines)
	if err != nil {
		return out, err
	}
	out.stats, out.interval = res.Stats, &res
	return out, nil
}

// attemptWholeSampled runs the entire sampled plan inside one cell, bounded
// as a whole by Runner.Timeout: the cell's worker runs the fast-forward pass
// and simulates each interval on its pooled machine as that interval's
// checkpoint arrives, then stitches. This is the transparent-sampling path
// (Runner.Sample), where parallelism comes from the grid's other cells;
// RunSampled instead fans the intervals out across the pool.
func (r *Runner) attemptWholeSampled(ctx context.Context, bench string, cfg core.Config, plan sample.Plan, machines map[string]*core.Machine) (out cellOutcome, err error) {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	p, err := r.load(bench)
	if err != nil {
		return out, err
	}
	var ivs []sample.IntervalResult
	ff, err := r.stream(ctx, p, bench, cfg, plan, func(ck sample.Checkpoint) error {
		res, err := r.simulateInterval(ctx, bench, cfg, &interval{prog: p, plan: plan, ck: ck}, machines)
		if err != nil {
			return fmt.Errorf("harness: %s interval %d: %w", bench, ck.Index, err)
		}
		ivs = append(ivs, res)
		return nil
	})
	if err != nil {
		return out, err
	}
	sum, err := sample.Stitch(ff, ivs)
	if err != nil {
		return out, err
	}
	out.stats, out.summary = sum.Stats, sum
	return out, nil
}

// RunSampled executes one (benchmark, configuration) under the plan with the
// checkpoints as the unit of parallelism. The fast-forward pass runs on the
// calling goroutine and feeds each checkpoint, as soon as it is complete, to
// Sweep's worker pool as an interval cell; the pass waits while every worker
// is busy and as many checkpoints are queued. The results are stitched in
// index order — a deterministic merge no matter how the intervals were
// scheduled — so a run holds only the checkpoints in flight, never the
// whole pass.
//
// ctx bounds the pass and every interval; Runner.Timeout bounds each
// interval. The first failure, of the pass or of an interval, cancels the
// rest and is returned; queued intervals then finish with the cancellation
// unsimulated. Per-interval results are cached like any other cell, so a
// re-run after a partial failure only simulates the missing intervals (it
// runs the functional pass again to get their checkpoints).
func (r *Runner) RunSampled(ctx context.Context, bench string, cfg core.Config, plan sample.Plan) (*sample.Summary, error) {
	plan = plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	p, err := r.load(bench)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu    sync.Mutex
		first error
		ivs   []sample.IntervalResult
		ff    *sample.FFResult
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = err
			cancel()
		}
	}
	r.pool(ctx, r.workers(), func(send func(int, SweepCell)) {
		var err error
		ff, err = r.stream(ctx, p, bench, cfg, plan, func(ck sample.Checkpoint) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			send(ck.Index, SweepCell{Bench: bench, Cfg: cfg, iv: &interval{prog: p, plan: plan, ck: ck}})
			return nil
		})
		if err != nil {
			fail(err)
		}
	}, func(k int, res SweepResult) {
		if res.Err != nil {
			fail(fmt.Errorf("harness: %s interval %d: %w", bench, k, res.Err))
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for len(ivs) <= k {
			ivs = append(ivs, sample.IntervalResult{})
		}
		ivs[k] = *res.Interval
	})
	if first != nil {
		return nil, first
	}
	return sample.Stitch(ff, ivs)
}
