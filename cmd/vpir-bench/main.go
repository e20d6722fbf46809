// Command vpir-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	vpir-bench                 # every table and figure, full-length runs
//	vpir-bench -exp fig6       # one experiment
//	vpir-bench -scale 4        # 4x longer workloads
//	vpir-bench -maxinsts 50000 # truncated runs (quick look)
//	vpir-bench -parallel 8     # 8 sweep workers (results identical at any setting)
//	vpir-bench -scale 16 -sample 5 -interval 100000 -warmup 2000
//	                           # paper-scale workloads via checkpointed sampling
//
// With -metrics-dir every underlying simulation additionally writes its
// sampled time series (and event log) into the given directory, one file
// set per (benchmark, configuration); render them with vpir-metrics. The
// -cpuprofile/-memprofile/-trace flags profile the campaign itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/sample"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (table1..table6, fig3..fig10) or 'all'")
	scale := flag.Int("scale", 1, "workload scale factor")
	maxInsts := flag.Uint64("maxinsts", 0, "cap dynamic instructions per run (0 = full)")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS); results are identical at any setting")
	sampleEvery := flag.Uint64("sample", 0, "checkpointed sampling: measure 1 interval in every N (0 = off, 1 = 100% coverage)")
	intervalLen := flag.Uint64("interval", 100_000, "sampling: measured interval length in instructions")
	warmup := flag.Uint64("warmup", 0, "sampling: detailed-warmup instructions before each interval (discarded)")
	metricsDir := flag.String("metrics-dir", "", "write per-run observability files (series/events JSONL) into this directory")
	interval := flag.Uint64("metrics-interval", 0, "cycles between metric samples (0 = default 10000)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile of the campaign to this file")
	tracefile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

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

	r := harness.NewRunner()
	r.Scale = *scale
	r.MaxInsts = *maxInsts
	r.Parallelism = *parallel
	if *metricsDir != "" {
		r.Obs = &harness.ObsExport{Dir: *metricsDir, Interval: *interval, Events: true}
	}
	if *sampleEvery > 0 {
		r.Sample = &sample.Plan{Interval: *intervalLen, Every: *sampleEvery, Warmup: *warmup}
	}

	runExp := func(e harness.Experiment) int {
		start := time.Now()
		tables, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-bench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		return 0
	}

	if *exp == "all" {
		for _, e := range harness.Experiments() {
			if code := runExp(e); code != 0 {
				return code
			}
		}
	} else {
		e, err := harness.Find(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-bench: %v\n", err)
			return 2
		}
		if code := runExp(e); code != 0 {
			return code
		}
	}

	if *memprofile != "" {
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "vpir-bench: %v\n", err)
	return 1
}
