// Package vpir is a reproduction, as a library, of "Understanding the
// Differences Between Value Prediction and Instruction Reuse" (Sodani &
// Sohi, MICRO 1998).
//
// It provides a 4-way out-of-order superscalar timing simulator (the
// paper's Table 1 machine) with Value Prediction (VP_Magic / VP_LVP, the
// SB/NSB branch-resolution and ME/NME re-execution policies, configurable
// verification latency) and Instruction Reuse (scheme S_{n+d} with the
// paper's augmentations), seven scaled benchmark kernels standing in for
// the SPEC95 integer suite, the §4.3 redundancy limit study, and a harness
// that regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := vpir.RunBenchmark("compress", 1, vpir.Options{Technique: vpir.IR})
//	fmt.Println(res.IPC, res.ReuseResultRate)
//
// Result embeds Report, the derived metrics the HTTP API carries too;
// Redundancy, SampleSummary and MetricCI alias the internal result types.
//
// Everything deeper (the assembler, the pipeline, the reuse buffer) lives
// in internal packages; this package is the stable surface.
package vpir

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/redundancy"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/server"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

// Technique selects the redundancy mechanism integrated into the pipeline.
// Any name registered in the technique registry is valid; the constants
// below name the built-in set (see Techniques for the live list).
type Technique string

const (
	Base   Technique = "base"   // plain superscalar
	VP     Technique = "vp"     // value prediction (scheme selectable)
	IR     Technique = "ir"     // instruction reuse
	Hybrid Technique = "hybrid" // IR first, VP on reuse misses (extension)

	// Scheme-pinned value predictors (extensions beyond the paper's Magic
	// and LVP schemes; equivalent to VP with the matching Scheme knob).
	VPStride Technique = "vp_stride" // eager stride predictor
	VP2Delta Technique = "vp_2delta" // 2-delta stride (adopt stride on repeat)
	VPFCM    Technique = "vp_fcm"    // two-level finite context method

	// HybridConf arbitrates reuse vs. prediction by confidence: a value
	// prediction is only used at saturated confidence, and address
	// prediction is skipped when the reuse test already supplied the
	// address.
	HybridConf Technique = "hybrid_conf"
)

// Techniques lists every registered technique name (sorted). New schemes
// registered through internal/technique appear here automatically, and the
// golden corpus enumerates exactly this list.
func Techniques() []string { return technique.Names() }

// TechniqueDesc returns the one-line description of a registered technique
// ("" for unknown names).
func TechniqueDesc(name string) string {
	t, ok := technique.Lookup(name)
	if !ok {
		return ""
	}
	return t.Desc
}

// Knobs are the technique's free parameters (§4.1.4 of the paper, plus
// Figure 3's late validation): the VP Scheme ("magic" default, "lvp",
// "stride", "2delta" or "fcm"), BranchResolution ("sb" default or "nsb"),
// Reexec ("me" default or "nme"), VerifyLatency in cycles, and the IR
// knob LateValidation. Knob validation is strict: setting a knob the
// selected technique does not consume is an error, never silently ignored.
// The HTTP wire options embed the same struct.
type Knobs = technique.Knobs

// Options configures a simulation. The zero value is the base machine.
type Options struct {
	Technique Technique

	// Knobs is embedded, so opt.Scheme and friends read and assign as
	// Options fields; a composite literal names it: Knobs: vpir.Knobs{…}.
	Knobs

	// MaxInsts caps the simulated dynamic instruction count (0 = run the
	// program to completion).
	MaxInsts uint64

	// WatchdogCycles overrides the pipeline livelock watchdog: when more
	// than this many cycles pass without a retirement the run aborts with
	// a structured error instead of spinning forever. 0 keeps the default
	// (core.DefaultWatchdog); negative disables the watchdog.
	WatchdogCycles int64

	// Timeout bounds the simulation's wall-clock time (0 = unbounded). With
	// Sample it bounds the whole sampled run, fast-forward included.
	Timeout time.Duration

	// Metrics, when non-nil, attaches the time-resolved observability
	// instrumentation to the run: an interval sampler of derived series
	// (IPC, occupancies, hit rates) and a bounded ring of structured
	// pipeline events. The collected data comes back in Result.Obs. A nil
	// Metrics keeps the fully uninstrumented fast path.
	Metrics *MetricsOptions

	// Sample, when non-nil, switches the run to checkpointed sampled
	// simulation: one functional pass with functional warming captures
	// checkpoints, the sampled intervals are simulated in detail in parallel,
	// and the per-interval statistics are stitched into whole-program
	// estimates (Result.Sample carries the coverage and confidence
	// intervals). A plan covering the whole program in one interval is
	// bit-identical to a non-sampled run. Only benchmark runs can be sampled
	// (RunSource rejects it), and Metrics is unsupported under sampling.
	Sample *SampleOptions
}

// SampleOptions is a checkpointed-sampling plan (see docs/sampling.md).
type SampleOptions struct {
	// Interval is the length of each measured interval in dynamic
	// instructions (required).
	Interval uint64
	// Every measures one interval out of this many (0 or 1 = all of them,
	// i.e. 100% coverage; k>1 ≈ 1/k coverage).
	Every uint64
	// Warmup is the number of detailed-warmup instructions simulated before
	// each measured interval and then discarded from its statistics.
	Warmup uint64
}

// MetricsOptions tunes the observability instrumentation (see
// docs/observability.md).
type MetricsOptions struct {
	// Interval is the sampling period in cycles (0 = the default 10k).
	Interval uint64
	// EventCap bounds the structured event ring (0 = the default 4096);
	// when full, the oldest events are dropped and counted.
	EventCap int
}

// config maps the public Options onto a machine configuration via the
// wire options, which resolve through the technique registry — one
// name/knob mapping shared by the library, the HTTP API and the CLIs,
// so they cannot drift.
func (o Options) config() (core.Config, error) {
	return server.SimOptions{
		Technique:      string(o.Technique),
		Knobs:          o.Knobs,
		WatchdogCycles: o.WatchdogCycles,
	}.Config()
}

// Report holds one run's counters and derived paper metrics; the HTTP
// API's "stats" object is the same struct, under its JSON tags.
type Report = core.Report

// Result is the outcome of one simulation.
type Result struct {
	Config string // configuration label, e.g. "VP_Magic ME-SB vlat=0"

	// Report is embedded, so res.IPC and friends read as Result fields; a
	// composite literal names it: Report: vpir.Report{…}.
	Report

	// CyclesSkipped is how many of Cycles the quiescence-aware skipper
	// fast-forwarded instead of simulating cycle by cycle. Purely a
	// simulator-performance observation — results are bit-identical with
	// skipping off — and zero for sampled runs, whose stitched statistics
	// have no single underlying machine.
	CyclesSkipped uint64

	Output   string
	ExitCode int

	// Obs carries the observability data when Options.Metrics was set;
	// nil otherwise.
	Obs *Obs

	// Sample carries the sampling summary when Options.Sample was set; nil
	// otherwise. All the Report fields are then whole-program estimates
	// (exact sums at 100% coverage, ratio-scaled otherwise).
	Sample *SampleSummary
}

// SampleSummary describes how a sampled run covered the program, with 95%
// confidence intervals of four Report metrics; it is the HTTP API's
// "sample" object.
type SampleSummary = sample.Extent

// MetricCI is one metric's confidence interval: Mean ± Half covers the
// metric's per-interval values at 95% confidence. Name is the metric's
// JSON name in Report.
type MetricCI = sample.MetricCI

// Obs is the observability payload of an instrumented run: the sampled
// time series, the structured event ring, and the metric registry, with
// exporters for each. See docs/observability.md for the formats.
type Obs struct {
	o *core.Observer
}

// Samples is the number of interval samples collected (including the
// final flush at halt).
func (ob *Obs) Samples() int { return ob.o.Series().Len() }

// SampleInterval is the effective sampling period in cycles.
func (ob *Obs) SampleInterval() uint64 { return ob.o.Interval() }

// SampleFields names the series columns in export order ("cycle" first).
func (ob *Obs) SampleFields() []string { return ob.o.Series().Fields() }

// EventsBuffered is how many events the ring currently holds; EventsDropped
// is how many older ones were overwritten.
func (ob *Obs) EventsBuffered() int   { return ob.o.Events().Len() }
func (ob *Obs) EventsDropped() uint64 { return ob.o.Events().Dropped() }

// WriteSeriesJSONL writes the sampled time series as JSON Lines, one
// object per sample with deterministic key order.
func (ob *Obs) WriteSeriesJSONL(w io.Writer) error { return ob.o.Series().WriteJSONL(w) }

// WriteSeriesCSV writes the sampled time series as CSV.
func (ob *Obs) WriteSeriesCSV(w io.Writer) error { return ob.o.Series().WriteCSV(w) }

// WriteEventsJSONL writes the buffered structured events as JSON Lines.
func (ob *Obs) WriteEventsJSONL(w io.Writer) error { return ob.o.Events().WriteJSONL(w) }

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (a final snapshot, suitable for node-exporter-style
// textfile collection).
func (ob *Obs) WritePrometheus(w io.Writer) error { return ob.o.Registry().WritePrometheus(w) }

func resultFrom(m *core.Machine) Result {
	res := Result{
		Config:        m.Config().Name(),
		Report:        m.Stats().Report(),
		CyclesSkipped: m.CyclesSkipped(),
		Output:        m.Output(),
		ExitCode:      m.ExitCode(),
	}
	if o := m.Observer(); o != nil {
		res.Obs = &Obs{o: o}
	}
	return res
}

// Benchmarks returns the seven benchmark names in the paper's order.
func Benchmarks() []string { return workload.Names() }

// BenchmarkInfo describes one benchmark kernel.
type BenchmarkInfo struct {
	Name string
	Desc string
}

// BenchmarkInfos lists the benchmarks with their one-line descriptions.
func BenchmarkInfos() []BenchmarkInfo {
	out := make([]BenchmarkInfo, 0, len(workload.Names()))
	for _, n := range workload.Names() {
		w, err := workload.Get(n)
		if err != nil {
			continue
		}
		out = append(out, BenchmarkInfo{Name: w.Name, Desc: w.Desc})
	}
	return out
}

// runProgram simulates p in detail. A non-nil tr is attached to the
// machine before the run, for TracePipeline.
func runProgram(p *prog.Program, opt Options, tr *core.PipeTracer) (Result, error) {
	if opt.Sample != nil {
		return Result{}, fmt.Errorf("vpir: Sample is only supported by RunBenchmark")
	}
	cfg, err := opt.config()
	if err != nil {
		return Result{}, err
	}
	m, err := core.New(p, cfg, opt.MaxInsts)
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		m.Trace(tr)
	}
	if opt.Metrics != nil {
		m.AttachObserver(core.NewObserver(opt.Metrics.Interval, opt.Metrics.EventCap))
	}
	if opt.Timeout > 0 {
		// Drive the machine in slices so the wall-clock deadline is
		// observed; the watchdog separately bounds simulated-time livelock.
		deadline := time.Now().Add(opt.Timeout)
		const slice = 200_000
		for !m.Halted() {
			if time.Now().After(deadline) {
				return Result{}, fmt.Errorf("vpir: %s timed out after %v at cycle %d",
					cfg.Name(), opt.Timeout, m.Cycle())
			}
			if err := m.Run(slice); err != nil {
				return Result{}, err
			}
		}
	} else if err := m.Run(0); err != nil {
		return Result{}, err
	}
	return resultFrom(m), nil
}

// RunBenchmark simulates one of the built-in benchmarks at the given scale
// (1 = the standard ~0.2-1M instruction runs; larger scales multiply the
// kernels' iteration counts, the paper-scale workload mode that sampling
// makes tractable).
func RunBenchmark(name string, scale int, opt Options) (Result, error) {
	if scale < 1 {
		scale = 1
	}
	if opt.Sample != nil {
		return runBenchmarkSampled(name, scale, opt)
	}
	p, err := loadBenchmark(name, scale)
	if err != nil {
		return Result{}, err
	}
	return runProgram(p, opt, nil)
}

// loadBenchmark assembles a registered benchmark; scales below 1 run at 1.
func loadBenchmark(name string, scale int) (*prog.Program, error) {
	w, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	return w.Load(scale)
}

// runBenchmarkSampled is the checkpointed-sampling path: the harness fans
// the plan's intervals across a worker pool as the fast-forward pass hands
// out their checkpoints, and stitches the results. Options.Timeout bounds
// the whole run, fast-forward included.
func runBenchmarkSampled(name string, scale int, opt Options) (Result, error) {
	if opt.Metrics != nil {
		return Result{}, fmt.Errorf("vpir: Metrics instrumentation is not supported with Sample")
	}
	cfg, err := opt.config()
	if err != nil {
		return Result{}, err
	}
	r := harness.NewRunner()
	r.Scale = scale
	r.MaxInsts = opt.MaxInsts
	ctx := context.Background()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	plan := sample.Plan{Interval: opt.Sample.Interval, Every: opt.Sample.Every, Warmup: opt.Sample.Warmup}
	sum, err := r.RunSampled(ctx, name, cfg, plan)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Config:   cfg.Name(),
		Report:   sum.Stats.Report(),
		Output:   sum.Output,
		ExitCode: sum.ExitCode,
		Sample:   &sum.Extent,
	}, nil
}

// RunSource assembles the given assembly program (see the README for the
// dialect) and simulates it.
func RunSource(name, source string, opt Options) (Result, error) {
	p, err := asm.Assemble(name, source)
	if err != nil {
		return Result{}, err
	}
	return runProgram(p, opt, nil)
}

// Assemble checks a program without running it; it returns the number of
// instructions and data bytes, or the assembly errors.
func Assemble(name, source string) (textWords, dataBytes int, err error) {
	p, err := asm.Assemble(name, source)
	if err != nil {
		return 0, 0, err
	}
	return len(p.Text), len(p.Data), nil
}

// RegisterBenchmark adds a custom workload so it can be used with
// RunBenchmark and the experiment harness. golden may be nil if no
// self-check is wanted.
func RegisterBenchmark(name, desc, source string, golden func() string) error {
	return workload.Register(&workload.Workload{
		Name:   name,
		Desc:   desc,
		Source: func(int) string { return source },
		Golden: func(int) string {
			if golden == nil {
				return ""
			}
			return golden()
		},
	})
}

// Redundancy is the §4.3 limit study result for one benchmark, in the
// percentages of Figures 8 to 10.
type Redundancy = redundancy.Percents

// AnalyzeRedundancy runs the limit study on one benchmark.
func AnalyzeRedundancy(name string, scale int, maxInsts uint64) (Redundancy, error) {
	p, err := loadBenchmark(name, scale)
	if err != nil {
		return Redundancy{}, err
	}
	r, err := redundancy.Analyze(p, redundancy.DefaultConfig(), maxInsts)
	if err != nil {
		return Redundancy{}, err
	}
	return r.Percents(), nil
}

// Experiments lists the reproducible paper tables and figures.
func Experiments() []string {
	var out []string
	for _, e := range harness.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment regenerates one paper table/figure and returns it rendered
// as text. maxInsts caps each benchmark run (0 = full runs; the paper-shaped
// standard), scale scales the workloads.
func RunExperiment(id string, scale int, maxInsts uint64) (string, error) {
	e, err := harness.Find(id)
	if err != nil {
		return "", err
	}
	r := harness.NewRunner()
	if scale >= 1 {
		r.Scale = scale
	}
	r.MaxInsts = maxInsts
	tables, err := e.Run(r)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String(), nil
}

// TracePipeline runs a benchmark under the given options with a pipeline
// tracer attached and returns a rendered per-instruction diagram of the
// first n instructions (fetch/decode/issue/complete/commit, with reuse and
// squash markers). A quick way to see how IR collapses dependence chains at
// decode and how VP overlaps dependent executions. The run honours MaxInsts,
// WatchdogCycles and Timeout like RunBenchmark; Sample and Metrics are
// rejected, since a diagram needs one detailed run and returns no Result.
func TracePipeline(bench string, scale int, opt Options, n int) (string, error) {
	if opt.Metrics != nil {
		return "", fmt.Errorf("vpir: Metrics instrumentation is not supported by TracePipeline")
	}
	p, err := loadBenchmark(bench, scale)
	if err != nil {
		return "", err
	}
	tr := &core.PipeTracer{Max: n}
	if _, err := runProgram(p, opt, tr); err != nil {
		return "", err
	}
	var b strings.Builder
	tr.Render(&b, 120)
	return b.String(), nil
}

// ServerOptions tunes the simulation-as-a-service front-end (see
// docs/server.md for the API and the caching/batching/shutdown contract).
// The zero value serves on :8080 with GOMAXPROCS workers, a 1024-entry
// result cache and a 2-minute per-simulation wall-clock bound.
type ServerOptions struct {
	// Addr is the listen address (default ":8080"); only used by Serve.
	Addr string
	// Workers bounds how many /v1/run simulations execute concurrently
	// (0 = GOMAXPROCS). Each worker reuses machines across requests.
	Workers int
	// CacheEntries bounds the LRU result cache (0 = 1024 default;
	// negative disables caching).
	CacheEntries int
	// Timeout bounds each simulation's wall-clock time (0 = 2-minute
	// default; negative disables the bound).
	Timeout time.Duration
	// MaxInsts caps the dynamic instruction count a request may ask for;
	// larger (or unbounded) requests are clamped. 0 = no cap.
	MaxInsts uint64
	// MaxScale caps the workload scale factor a request may ask for
	// (0 = 16).
	MaxScale int
	// SweepParallelism is the harness worker count serving each /v1/sweep
	// request (0 = GOMAXPROCS).
	SweepParallelism int
}

func (o ServerOptions) serverConfig() server.Config {
	return server.Config{
		Workers:          o.Workers,
		CacheEntries:     o.CacheEntries,
		Timeout:          o.Timeout,
		MaxInsts:         o.MaxInsts,
		MaxScale:         o.MaxScale,
		SweepParallelism: o.SweepParallelism,
	}
}

// ServeHandler builds the simulation service and returns its HTTP handler
// together with a drain function: calling drain rejects new run/sweep
// requests with 503, waits for in-flight ones (bounded by the context),
// and tears down the worker pool. Use it to mount the service into an
// existing mux or server; Serve is the one-call version.
func ServeHandler(opt ServerOptions) (http.Handler, func(context.Context) error) {
	s := server.New(opt.serverConfig())
	return s.Handler(), s.Drain
}

// Serve runs the simulation service on opt.Addr, blocking like
// http.ListenAndServe. For graceful shutdown control, use ServeHandler
// with your own http.Server (cmd/vpir-server does exactly that).
func Serve(opt ServerOptions) error {
	h, _ := ServeHandler(opt)
	addr := opt.Addr
	if addr == "" {
		addr = ":8080"
	}
	return (&http.Server{Addr: addr, Handler: h}).ListenAndServe()
}
