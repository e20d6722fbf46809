// Command bench is the repository's benchmark: it times the simulator's
// user-facing jobs end to end, one fresh child process per rep, checks
// every output, and in traced runs times each layer's public calls.
//
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh -workload all -seed 1          # end-to-end metrics
//	bash bench/run.sh -workload long-base -trace 1   # per-layer metrics and spans
//	bash bench/run.sh -ab PARENT_BIN,CHANGE_BIN -pairs 10 -seed 2
//
// README.md next to this file describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed that orders each rep's work (held-out seed: 2)")
	seconds := flag.Int("seconds", defaultSeconds, "run length: reps per workload are seconds / the workload's rep time, at least one")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory for the span files of traced runs")
	tiny := flag.Bool("tiny", false, "run every workload at smoke-test size")
	ab := flag.String("ab", "", "PARENT_BIN,CHANGE_BIN: interleaved A/B of two benchmark binaries")
	pairs := flag.Int("pairs", 10, "A/B pairs")
	child := flag.String("child", "", "internal: run one rep of this workload in this process")
	rep := flag.Int("rep", 0, "internal: rep index of a child")
	setupOnly := flag.Bool("setup-only", false, "internal: the child stops after set-up")
	spawnedAt := flag.Int64("spawned-at", 0, "internal: wall clock (Unix ns) at which the parent started the child")
	flag.Parse()

	if flag.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return usage(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		return usage(fmt.Errorf("-seconds must be at least 1"))
	}
	if *child != "" {
		res := runChild(childOpts{workload: *child, seed: *seed, rep: *rep, tiny: *tiny, setupOnly: *setupOnly,
			trace: *traceFlag == 1, spans: *spans, spawnedAt: *spawnedAt})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	ws := specs
	if *workloadName != "all" {
		w, err := findSpec(*workloadName)
		if err != nil {
			return usage(err)
		}
		ws = []*spec{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ab != "" {
		bins := strings.Split(*ab, ",")
		if len(bins) != 2 || *pairs < 1 {
			return usage(fmt.Errorf("-ab needs PARENT_BIN,CHANGE_BIN and -pairs ≥ 1"))
		}
		return runAB(ctx, abOpts{parent: bins[0], change: bins[1], pairs: *pairs, seed: *seed,
			seconds: *seconds, tiny: *tiny}, ws)
	}

	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	o := runOpts{bin: bin, seed: *seed, seconds: *seconds, tiny: *tiny, spans: *spans}
	traced := *traceFlag == 1
	var ts []*tally
	if traced {
		ts = measureTraced(ctx, o, ws)
	} else {
		ts = measure(ctx, o, ws)
	}
	ok, err := report(os.Stdout, ts, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok || ctx.Err() != nil {
		return 1
	}
	return 0
}

func usage(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	flag.Usage()
	return 2
}
