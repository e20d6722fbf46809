package server

import (
	"context"
	"fmt"
	"runtime"

	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/workload"
)

// machineCap bounds how many reusable machines one worker keeps. Each
// machine pins its program's full oracle trace, so an unbounded pool would
// grow with every distinct (bench, scale, max_insts) the server ever saw;
// past the cap an arbitrary machine is dropped and rebuilt on next use.
const machineCap = 8

// poolJob is one /v1/run or /v1/trace simulation queued for a pool worker.
type poolJob struct {
	ctx      context.Context
	bench    string
	scale    int
	maxInsts uint64
	cfg      core.Config
	trace    *traceParams // non-nil for /v1/trace: capture obs + pipetrace
	reply    chan poolResult
}

// traceParams are the capture bounds of one traced run: the pipetrace
// ring window (last N instructions), the interval sampler period, and the
// event ring capacity. All three are clamped by the handler before they
// reach the pool.
type traceParams struct {
	window   int
	interval uint64
	events   int
}

// poolResult carries everything a RunResponse needs: unlike the harness's
// SweepResult it includes the architectural Output/ExitCode, which the
// differential tests (and users validating runs) care about. Traced runs
// additionally carry the detached tracer and observer.
type poolResult struct {
	stats    core.Stats
	output   string
	exitCode int
	// skipped is the run's quiescence-skipped cycle count, kept beside
	// rather than inside stats (which must stay bit-identical whether or
	// not the skipper ran).
	skipped uint64
	tracer  *core.PipeTracer
	obs     *core.Observer
	err     error
}

// pool is the bounded worker pool behind POST /v1/run. Each worker owns a
// private set of machines it rewinds with Machine.Reset between requests
// (the same reuse model as the harness sweep engine), so steady-state
// traffic over a working set of benchmarks builds one machine per
// (worker, benchmark).
type pool struct {
	jobs chan *poolJob
	wg   sync.WaitGroup
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{jobs: make(chan *poolJob)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			machines := make(map[string]*core.Machine)
			for j := range p.jobs {
				j.reply <- runJob(j, machines)
			}
		}()
	}
	return p
}

// run submits one simulation and waits for its result. Submission respects
// the job's context: a caller whose deadline passes while every worker is
// busy gets the context error instead of queueing forever.
func (p *pool) run(ctx context.Context, bench string, scale int, maxInsts uint64, cfg core.Config) poolResult {
	return p.submit(&poolJob{
		ctx: ctx, bench: bench, scale: scale, maxInsts: maxInsts, cfg: cfg,
		reply: make(chan poolResult, 1),
	})
}

// trace submits one observed simulation: the same pooled, machine-reusing
// path as run, with a pipetrace ring and an interval-sampling observer
// attached for the duration of the run.
func (p *pool) trace(ctx context.Context, bench string, scale int, maxInsts uint64, cfg core.Config, tp traceParams) poolResult {
	return p.submit(&poolJob{
		ctx: ctx, bench: bench, scale: scale, maxInsts: maxInsts, cfg: cfg,
		trace: &tp,
		reply: make(chan poolResult, 1),
	})
}

func (p *pool) submit(j *poolJob) poolResult {
	select {
	case p.jobs <- j:
		return <-j.reply
	case <-j.ctx.Done():
		return poolResult{err: fmt.Errorf("server: queue wait: %w", j.ctx.Err())}
	}
}

// close drains the pool: no new jobs are accepted and the call returns
// once every worker has exited. The Server only calls it after the last
// in-flight request finished.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// runJob performs one simulation on the calling worker, reusing (and on
// success keeping) a machine from the worker's pool. Panics become errors
// so one bad run cannot take a worker down, and the machine that panicked
// is dropped — its state is unknown mid-update, and the Reset determinism
// contract only covers machines whose Run returned normally.
func runJob(j *poolJob, machines map[string]*core.Machine) (res poolResult) {
	key := fmt.Sprintf("%s|%d|%d", j.bench, j.scale, j.maxInsts)
	defer func() {
		if p := recover(); p != nil {
			delete(machines, key)
			res = poolResult{err: fmt.Errorf("server: panic simulating %s under %s: %v", j.bench, j.cfg.Name(), p)}
		}
	}()
	if err := j.ctx.Err(); err != nil {
		return poolResult{err: err}
	}
	m := machines[key]
	if m != nil {
		if err := m.Reset(j.cfg); err != nil {
			return poolResult{err: err}
		}
	} else {
		w, err := workload.Get(j.bench)
		if err != nil {
			return poolResult{err: err}
		}
		prog, err := w.Load(j.scale)
		if err != nil {
			return poolResult{err: err}
		}
		m, err = core.New(prog, j.cfg, j.maxInsts)
		if err != nil {
			return poolResult{err: err}
		}
		if len(machines) >= machineCap {
			for k := range machines {
				delete(machines, k)
				break
			}
		}
		machines[key] = m
	}
	var tracer *core.PipeTracer
	var observer *core.Observer
	if j.trace != nil {
		tracer = &core.PipeTracer{Max: j.trace.window, Ring: true}
		observer = core.NewObserver(j.trace.interval, j.trace.events)
		m.Trace(tracer)
		m.AttachObserver(observer)
		// Detach on every exit path (including errors) so the machine the
		// worker keeps for the next request never samples into a dead
		// observer; the panic path drops the machine entirely.
		defer func() {
			m.Trace(nil)
			m.AttachObserver(nil)
		}()
	}
	if err := driveMachine(j.ctx, m); err != nil {
		return poolResult{err: err}
	}
	return poolResult{
		stats: m.Stats(), output: m.Output(), exitCode: m.ExitCode(),
		skipped: m.CyclesSkipped(), tracer: tracer, obs: observer,
	}
}

// driveMachine runs m to completion in bounded cycle slices so the request
// context's deadline and cancellation are observed; the machine's own
// watchdog separately bounds no-progress livelock in simulated time.
func driveMachine(ctx context.Context, m *core.Machine) error {
	const slice = 200_000 // cycles between deadline checks
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("server: %s at cycle %d: %w", m.Config().Name(), m.Cycle(), err)
		}
		if err := m.Run(slice); err != nil {
			return err
		}
	}
	return nil
}
