// Command vpir-redundancy runs the §4.3 limit study (Figures 8, 9, 10) on
// the built-in benchmarks or an assembly file.
//
// Usage:
//
//	vpir-redundancy                  # all seven benchmarks
//	vpir-redundancy -bench compress
//	vpir-redundancy -file prog.s
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/redundancy"
	"github.com/vpir-sim/vpir/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (default: all)")
	file := flag.String("file", "", "assembly source file instead of a benchmark")
	scale := flag.Int("scale", 1, "workload scale factor")
	maxInsts := flag.Uint64("maxinsts", 0, "instruction cap (0 = full run)")
	cfg := redundancy.DefaultConfig()
	flag.Uint64Var(&cfg.ProdDistance, "dist", cfg.ProdDistance, "producer distance readiness horizon")
	flag.IntVar(&cfg.MaxInstances, "instances", cfg.MaxInstances, "buffered instances per static instruction")
	flag.Parse()

	header := fmt.Sprintf("%-10s %9s | %6s %6s %6s %6s | %7s %7s %7s | %6s %6s",
		"bench", "insts", "uniq%", "rep%", "deriv%", "unacc%", "reused%", "far%", "near%", "redun%", "reuse%")
	fmt.Println(header)

	analyze := func(name string, run func() (*redundancy.Result, error)) {
		r, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-redundancy: %s: %v\n", name, err)
			os.Exit(1)
		}
		p := r.Percents()
		fmt.Printf("%-10s %9d | %6.1f %6.1f %6.1f %6.1f | %7.1f %7.1f %7.1f | %6.1f %6.1f\n",
			name, p.Total, p.UniquePct, p.RepeatedPct, p.DerivedPct, p.UnaccPct,
			p.ProducersReusedPct, p.ProdFarPct, p.ProdNearPct, p.RedundantPct, p.ReusableOfRedundant)
	}

	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-redundancy: %v\n", err)
			os.Exit(1)
		}
		p, err := asm.Assemble(*file, string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		analyze(*file, func() (*redundancy.Result, error) {
			return redundancy.Analyze(p, cfg, *maxInsts)
		})
		return
	}

	benches := workload.Names()
	if *bench != "" {
		benches = []string{*bench}
	}
	for _, b := range benches {
		w, err := workload.Get(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-redundancy: %v\n", err)
			os.Exit(1)
		}
		p, err := w.Load(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpir-redundancy: %v\n", err)
			os.Exit(1)
		}
		analyze(b, func() (*redundancy.Result, error) {
			return redundancy.Analyze(p, cfg, *maxInsts)
		})
	}
	fmt.Println("\nreuse% is the Figure 10 metric: reusable redundancy / all redundancy (paper: 84-97%)")
}
