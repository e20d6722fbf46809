// Package harness defines and runs the reproduction experiments: one
// Experiment per table and figure in the paper's evaluation section. A
// shared Runner caches simulation results, so regenerating every table and
// figure performs each (benchmark, configuration) simulation exactly once.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/redundancy"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/stats"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// Runner executes and caches simulations. It is hardened for long
// campaigns: each run is bounded by an optional wall-clock deadline, panics
// in a simulation are converted to errors instead of killing the whole
// campaign, failures marked Transient are retried a bounded number of times,
// and RunAll aggregates every per-benchmark error while still returning the
// successful partial results.
type Runner struct {
	// Scale multiplies the workload sizes (1 = the standard runs).
	Scale int
	// MaxInsts caps the per-benchmark dynamic instruction count
	// (0 = run each kernel to completion).
	MaxInsts uint64
	// Parallelism is the sweep worker count (0 = GOMAXPROCS; 1 = strictly
	// serial, in cell order). Each worker keeps one reusable machine per
	// benchmark (see Sweep).
	Parallelism int
	// Timeout bounds each cell's wall-clock time (0 = unbounded): a plain
	// run, one interval of RunSampled, or a whole-program sampled cell
	// (Sample) with its fast-forward pass included. RunSampled's own pass is
	// bounded by its context alone. A cell that exceeds it fails with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Retries is how many times a run whose error is marked Transient is
	// re-attempted (deterministic simulator failures are never retried).
	Retries int
	// Obs, when non-nil, attaches observability instrumentation to every
	// simulation and writes per-run series/event files into Obs.Dir (see
	// docs/observability.md). Export failures fail the run: a campaign
	// asked to record its time series must not silently drop it.
	Obs *ObsExport
	// OnResult, when non-nil, is invoked by the sweep workers as each cell
	// finishes, with the cell's index and its result; RunSampled calls it
	// once per interval, with the interval's index. Calls arrive in
	// completion order, concurrently from multiple workers — the callback
	// must be safe for concurrent use. The simulation server uses it to
	// stream sweep results before the whole grid has finished.
	OnResult func(i int, res SweepResult)
	// Sample, when non-nil, switches every plain cell to checkpointed sampled
	// simulation under this plan (see internal/sample): Run and RunAll return
	// the stitched whole-program estimates instead of full-simulation stats.
	// Cells that carry their own SampleSpec are unaffected.
	Sample *sample.Plan

	mu    sync.Mutex
	cache map[string]cellOutcome
	red   map[string]*redundancy.Result

	// runHook, when non-nil, replaces the simulation in attempt; tests use
	// it to inject failures, panics and transient errors.
	runHook func(bench string, cfg core.Config) (core.Stats, error)
	// ffHook, when non-nil, replaces sample.Stream in stream; tests use it
	// to inject a panicking pass and to watch the checkpoints it hands out.
	ffHook func(ctx context.Context, p *prog.Program, cfg core.Config, plan sample.Plan, maxInsts uint64, emit func(sample.Checkpoint) error) (*sample.FFResult, error)
}

// Transient wraps an error to mark the failed run as retryable (an external
// resource hiccup rather than a deterministic simulator failure).
type Transient struct{ Err error }

func (t *Transient) Error() string { return "transient: " + t.Err.Error() }
func (t *Transient) Unwrap() error { return t.Err }

// IsTransient reports whether err is (or wraps) a Transient failure.
func IsTransient(err error) bool {
	var t *Transient
	return errors.As(err, &t)
}

// NewRunner builds a Runner with the standard scale.
func NewRunner() *Runner {
	return &Runner{
		Scale: 1,
		cache: make(map[string]cellOutcome),
		red:   make(map[string]*redundancy.Result),
	}
}

// Run simulates one benchmark under one configuration (cached). The cache
// key is Config.Key, which covers the entire configuration field by field,
// not just its display name — ablation sweeps vary structure sizes under
// the same name, and a sloppier key would silently alias their entries.
func (r *Runner) Run(bench string, cfg core.Config) (core.Stats, error) {
	out, _, err := r.runCell(context.Background(), SweepCell{Bench: bench, Cfg: cfg}, nil)
	return out.stats, err
}

// runMachine drives m to completion in bounded cycle slices so the context
// deadline is observed; the machine's own watchdog separately bounds
// no-progress livelock in simulated time.
func runMachine(ctx context.Context, m *core.Machine) error {
	const slice = 200_000 // cycles between deadline checks
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("harness: %s at cycle %d: %w", m.Config().Name(), m.Cycle(), err)
		}
		if err := m.Run(slice); err != nil {
			return err
		}
	}
	return nil
}

// RunAll simulates every benchmark under cfg, in the paper's order, on the
// sweep engine (see Sweep for the parallelism and machine-reuse model). All
// per-benchmark errors are aggregated with errors.Join in benchmark order —
// deterministic regardless of scheduling — and the successful runs are
// returned regardless, so a single failing benchmark never discards an
// entire campaign's work.
func (r *Runner) RunAll(cfg core.Config) (map[string]core.Stats, error) {
	benches := workload.Names()
	results := r.Sweep(context.Background(), Grid(benches, []core.Config{cfg}))
	out := make(map[string]core.Stats, len(benches))
	errs := make([]error, len(results))
	for i, res := range results {
		if res.Err != nil {
			errs[i] = fmt.Errorf("%s: %w", res.Bench, res.Err)
			continue
		}
		out[res.Bench] = res.Stats
	}
	return out, errors.Join(errs...)
}

// Redundancy runs the §4.3 limit study for one benchmark (cached).
func (r *Runner) Redundancy(bench string) (*redundancy.Result, error) {
	key := fmt.Sprintf("%s/%d/%d", bench, r.Scale, r.MaxInsts)
	r.mu.Lock()
	if res, ok := r.red[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()
	p, err := r.load(bench)
	if err != nil {
		return nil, err
	}
	res, err := redundancy.Analyze(p, redundancy.DefaultConfig(), r.MaxInsts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.red[key] = res
	r.mu.Unlock()
	return res, nil
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) ([]*stats.Table, error)
}

var experiments []Experiment

func registerExp(e Experiment) { experiments = append(experiments, e) }

// Experiments returns every registered experiment in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

func order(id string) string {
	// tables first, then figures, numerically.
	if len(id) > 5 && id[:5] == "table" {
		return "0" + fmt.Sprintf("%02s", id[5:])
	}
	if len(id) > 3 && id[:3] == "fig" {
		return "1" + fmt.Sprintf("%02s", id[3:])
	}
	return "2" + id
}

// Configurations shared by the experiments.

func magic(res core.BranchResolution, re core.ReexecPolicy, vlat int) core.Config {
	return core.VPChoice(vp.Magic, res, re, vlat)
}

func lvp(res core.BranchResolution, re core.ReexecPolicy, vlat int) core.Config {
	return core.VPChoice(vp.LVP, res, re, vlat)
}

// vpGrid is the four paper configurations at one verification latency.
func vpGrid(scheme vp.Scheme, vlat int) []core.Config {
	return []core.Config{
		core.VPChoice(scheme, core.SB, core.ME, vlat),
		core.VPChoice(scheme, core.SB, core.NME, vlat),
		core.VPChoice(scheme, core.NSB, core.ME, vlat),
		core.VPChoice(scheme, core.NSB, core.NME, vlat),
	}
}
