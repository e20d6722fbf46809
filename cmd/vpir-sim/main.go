// Command vpir-sim runs one benchmark (or an assembly file) on the timing
// simulator under a chosen configuration and prints the statistics.
//
// Usage:
//
//	vpir-sim -bench compress -tech ir
//	vpir-sim -bench go -tech vp -scheme lvp -resolution nsb -vlat 1
//	vpir-sim -bench compress -tech vp_2delta
//	vpir-sim -bench gcc -tech hybrid_conf -scheme fcm
//	vpir-sim -file prog.s -tech base
//
// -tech accepts any name in the technique registry (see -list); unknown
// names and knobs a technique does not consume are rejected, never
// silently mapped to a different machine. A -file program is registered as
// a benchmark under its path, so it takes every flag a benchmark does.
//
// -pipetrace N prints a SimpleScalar-style pipeline diagram of the first N
// instructions before the stats — the quickest way to see how IR collapses
// dependence chains at decode and how VP overlaps dependent executions.
// The diagram comes from a second, traced run of the same configuration,
// so it cannot be combined with -sample or the -metrics family:
//
//	vpir-sim -bench m88ksim -tech ir -pipetrace 30
//	vpir-sim -file prog.s -tech vp -reexec nme -pipetrace 60
//
// Checkpointed sampling (see docs/sampling.md) makes paper-scale workloads
// tractable: -sample N measures one interval in every N (1 = all of them,
// which is bit-identical to a full run), -interval and -warmup set the
// interval and detailed-warmup lengths in instructions:
//
//	vpir-sim -bench gcc -scale 64 -tech ir -sample 10 -interval 100000 -warmup 2000
//
// Observability (see docs/observability.md):
//
//	vpir-sim -bench gcc -tech ir -metrics gcc.series.jsonl -events gcc.events.jsonl
//	vpir-metrics gcc.series.jsonl
//
// Profiling the simulator itself: -cpuprofile, -memprofile and -trace
// write standard pprof/runtime-trace files for `go tool pprof` /
// `go tool trace`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"github.com/vpir-sim/vpir"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpir-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt vpir.Options
	bench := fs.String("bench", "", "benchmark name (go, m88ksim, ijpeg, perl, vortex, gcc, compress)")
	file := fs.String("file", "", "assembly source file to run instead of a benchmark")
	scale := fs.Int("scale", 1, "workload scale factor")
	tech := fs.String("tech", "base",
		"technique: "+strings.Join(vpir.Techniques(), ", "))
	fs.StringVar(&opt.Scheme, "scheme", "", "vp scheme: magic (default), lvp, stride, 2delta or fcm")
	fs.StringVar(&opt.BranchResolution, "resolution", "", "vp branch resolution: sb (default) or nsb")
	fs.StringVar(&opt.Reexec, "reexec", "", "vp re-execution policy: me (default) or nme")
	fs.IntVar(&opt.VerifyLatency, "vlat", 0, "vp verification latency in cycles")
	fs.BoolVar(&opt.LateValidation, "late", false, "ir: late validation (Figure 3 'late')")
	fs.Uint64Var(&opt.MaxInsts, "maxinsts", 0, "cap dynamic instructions (0 = full run)")
	sampleEvery := fs.Uint64("sample", 0, "checkpointed sampling: measure 1 interval in every N (0 = off, 1 = 100% coverage)")
	intervalLen := fs.Uint64("interval", 100_000, "sampling: measured interval length in instructions")
	warmup := fs.Uint64("warmup", 0, "sampling: detailed-warmup instructions before each interval (discarded)")
	pipetrace := fs.Int("pipetrace", 0, "print a pipeline diagram of the first N instructions, from an extra traced run, before the stats (0 = off)")
	showOutput := fs.Bool("output", false, "print the program's output")
	list := fs.Bool("list", false, "list the benchmarks and registered techniques, then exit")
	fs.DurationVar(&opt.Timeout, "timeout", 0, "wall-clock limit for the run (0 = none), e.g. 30s")
	fs.Int64Var(&opt.WatchdogCycles, "watchdog", 0, "livelock watchdog: abort after N cycles without a retirement (0 = default, negative = off)")

	metrics := fs.String("metrics", "", "write the sampled time series as JSONL to this file")
	metricsCSV := fs.String("metrics-csv", "", "write the sampled time series as CSV to this file")
	events := fs.String("events", "", "write the structured event log as JSONL to this file")
	prom := fs.String("prom", "", "write a final Prometheus text-format metrics snapshot to this file")
	interval := fs.Uint64("metrics-interval", 0, "cycles between metric samples (0 = default 10000)")

	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile of the simulator to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "vpir-sim: %v\n", err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, b := range vpir.BenchmarkInfos() {
			fmt.Fprintf(stdout, "  %-12s %s\n", b.Name, b.Desc)
		}
		fmt.Fprintln(stdout, "techniques:")
		for _, name := range vpir.Techniques() {
			fmt.Fprintf(stdout, "  %-12s %s\n", name, vpir.TechniqueDesc(name))
		}
		return 0
	}

	if *bench == "" && *file != "" {
		// Registered under its path, a file runs exactly like a benchmark.
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		if err := vpir.RegisterBenchmark(*file, "assembly file", string(src), nil); err != nil {
			return fail(err)
		}
		*bench = *file
	}
	if *bench == "" {
		fmt.Fprintln(stderr, "vpir-sim: need -bench or -file (try -list)")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fail(err)
		}
		defer trace.Stop()
	}

	opt.Technique = vpir.Technique(*tech)
	if *metrics != "" || *metricsCSV != "" || *events != "" || *prom != "" || *interval > 0 {
		opt.Metrics = &vpir.MetricsOptions{Interval: *interval}
	}
	if *sampleEvery > 0 {
		opt.Sample = &vpir.SampleOptions{Interval: *intervalLen, Every: *sampleEvery, Warmup: *warmup}
	}

	if *pipetrace > 0 {
		diagram, err := vpir.TracePipeline(*bench, *scale, opt, *pipetrace)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, diagram)
	}
	res, err := vpir.RunBenchmark(*bench, *scale, opt)
	if err != nil {
		return fail(err)
	}

	if res.Obs != nil {
		for _, exp := range []struct {
			path  string
			write func(io.Writer) error
		}{
			{*metrics, res.Obs.WriteSeriesJSONL},
			{*metricsCSV, res.Obs.WriteSeriesCSV},
			{*events, res.Obs.WriteEventsJSONL},
			{*prom, res.Obs.WritePrometheus},
		} {
			if exp.path == "" {
				continue
			}
			if err := writeFile(exp.path, exp.write); err != nil {
				return fail(err)
			}
		}
	}

	fmt.Fprintf(stdout, "config                %s\n", res.Config)
	fmt.Fprintf(stdout, "cycles                %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instructions          %d\n", res.Committed)
	fmt.Fprintf(stdout, "executions            %d\n", res.Executed)
	fmt.Fprintf(stdout, "IPC                   %.3f\n", res.IPC)
	fmt.Fprintf(stdout, "branch prediction     %.1f%%\n", res.BranchPredRate)
	fmt.Fprintf(stdout, "return prediction     %.1f%%\n", res.ReturnPredRate)
	fmt.Fprintf(stdout, "squashes              %d (%d spurious)\n", res.Squashes, res.SpuriousSquashes)
	fmt.Fprintf(stdout, "branch resolve lat    %.2f cycles\n", res.MeanBranchResolveLatency)
	fmt.Fprintf(stdout, "resource contention   %.4f\n", res.Contention)
	// The technique families share stat blocks: every hybrid reports both
	// its reuse and its prediction split. Names are matched the way the
	// registry resolves them, case-insensitively.
	name := strings.ToLower(*tech)
	if name == "ir" || strings.HasPrefix(name, "hybrid") {
		fmt.Fprintf(stdout, "reused results        %.1f%%\n", res.ReuseResultRate)
		fmt.Fprintf(stdout, "reused addresses      %.1f%%\n", res.ReuseAddrRate)
		fmt.Fprintf(stdout, "exec squashed         %.1f%%\n", res.ExecSquashedPct)
		fmt.Fprintf(stdout, "squashed recovered    %.1f%%\n", res.RecoveredPct)
	}
	if strings.HasPrefix(name, "vp") || strings.HasPrefix(name, "hybrid") {
		fmt.Fprintf(stdout, "results predicted     %.1f%% (+%.1f%% wrong)\n", res.VPResultPred, res.VPResultMispred)
		fmt.Fprintf(stdout, "addresses predicted   %.1f%% (+%.1f%% wrong)\n", res.VPAddrPred, res.VPAddrMispred)
		fmt.Fprintf(stdout, "exec 1/2/3+ times     %.1f%% / %.1f%% / %.1f%%\n",
			res.ExecTimesPct[0], res.ExecTimesPct[1], res.ExecTimesPct[2])
	}
	if res.Obs != nil {
		fmt.Fprintf(stdout, "metric samples        %d (every %d cycles)\n", res.Obs.Samples(), res.Obs.SampleInterval())
		fmt.Fprintf(stdout, "events buffered       %d (%d dropped)\n", res.Obs.EventsBuffered(), res.Obs.EventsDropped())
	}
	if sm := res.Sample; sm != nil {
		kind := "estimated"
		if sm.Exact {
			kind = "exact"
		}
		fmt.Fprintf(stdout, "sampling              %d intervals, %d of %d insts (%.1f%% coverage, %s)\n",
			sm.Intervals, sm.SampledInsts, sm.TotalInsts, 100*sm.Coverage, kind)
		for _, ci := range sm.CIs {
			fmt.Fprintf(stdout, "  %-19s %.3f ± %.3f (95%% CI)\n", ci.Name, ci.Mean, ci.Half)
		}
	}
	if *showOutput {
		fmt.Fprintf(stdout, "--- program output ---\n%s\n", res.Output)
	}

	if *memprofile != "" {
		runtime.GC()
		if err := writeFile(*memprofile, func(w io.Writer) error {
			return pprof.Lookup("heap").WriteTo(w, 0)
		}); err != nil {
			return fail(err)
		}
	}
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
