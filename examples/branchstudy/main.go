// Branchstudy reproduces the paper's branch-interaction findings (§4.2.2)
// on one benchmark: how SB/NSB branch resolution, the VP-verification
// latency, and instruction reuse change branch resolution latency and
// squash counts.
//
//	go run ./examples/branchstudy [bench]
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/vpir-sim/vpir"
)

func main() {
	bench := "go" // the hardest benchmark for the branch predictor
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}

	configs := []struct {
		label string
		opt   vpir.Options
	}{
		{"base", vpir.Options{}},
		{"IR", vpir.Options{Technique: vpir.IR}},
		{"VP Magic ME-SB vlat=0", vpir.Options{Technique: vpir.VP}},
		{"VP Magic ME-NSB vlat=0", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{BranchResolution: "nsb"}}},
		{"VP Magic ME-SB vlat=1", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{VerifyLatency: 1}}},
		{"VP Magic ME-NSB vlat=1", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{BranchResolution: "nsb", VerifyLatency: 1}}},
		{"VP LVP ME-SB vlat=1", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{Scheme: "lvp", VerifyLatency: 1}}},
		{"VP LVP ME-NSB vlat=1", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{Scheme: "lvp", BranchResolution: "nsb", VerifyLatency: 1}}},
	}

	fmt.Printf("branch interactions on %q (branch prediction is hardest here)\n\n", bench)
	fmt.Printf("%-26s %7s %12s %10s %10s\n", "configuration", "IPC", "resolve lat", "squashes", "spurious")

	var baseLat float64
	for i, c := range configs {
		res, err := vpir.RunBenchmark(bench, 1, c.opt)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseLat = res.MeanBranchResolveLatency
		}
		fmt.Printf("%-26s %7.3f %6.2f (%.2fx) %10d %10d\n",
			c.label, res.IPC, res.MeanBranchResolveLatency,
			res.MeanBranchResolveLatency/baseLat, res.Squashes, res.SpuriousSquashes)
	}
	fmt.Println("\nexpected shape (paper §4.2.2): IR resolves earliest (reused branches resolve")
	fmt.Println("at decode); SB resolves earlier than NSB but adds spurious squashes; the")
	fmt.Println("verification latency hurts NSB more than SB.")
}
