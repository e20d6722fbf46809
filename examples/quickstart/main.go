// Quickstart: assemble a small program, run it on the base machine and
// with each technique, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/vpir-sim/vpir"
)

// A toy kernel with plenty of redundancy: the same polynomial evaluated
// over a small set of values, many times.
const source = `
        .data
xs:     .word 3, 5, 7, 9
        .text
main:   li    $s0, 0          # outer counter
        li    $s2, 0          # accumulator
outer:  li    $t0, 0
inner:  sll   $t1, $t0, 2
        la    $at, xs
        addu  $t1, $t1, $at
        lw    $t2, 0($t1)     # x
        mul   $t3, $t2, $t2   # x^2
        mul   $t4, $t3, $t2   # x^3
        addu  $t5, $t4, $t3   # x^3 + x^2
        addu  $t5, $t5, $t2   # + x
        addu  $s2, $s2, $t5
        addiu $t0, $t0, 1
        slti  $at, $t0, 4
        bnez  $at, inner
        addiu $s0, $s0, 1
        slti  $at, $s0, 500
        bnez  $at, outer
        move  $a0, $s2
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall
`

func main() {
	configs := []struct {
		label string
		opt   vpir.Options
	}{
		{"base superscalar", vpir.Options{}},
		{"instruction reuse", vpir.Options{Technique: vpir.IR}},
		{"value prediction (Magic, ME-SB)", vpir.Options{Technique: vpir.VP}},
		{"value prediction (LVP, ME-SB, vlat=1)", vpir.Options{
			Technique: vpir.VP, Knobs: vpir.Knobs{Scheme: "lvp", VerifyLatency: 1}}},
		{"hybrid IR+VP (extension)", vpir.Options{
			Technique: vpir.Hybrid, Knobs: vpir.Knobs{BranchResolution: "nsb"}}},
	}

	var baseIPC float64
	for i, c := range configs {
		res, err := vpir.RunSource("quickstart.s", source, c.opt)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseIPC = res.IPC
			fmt.Printf("program output: %s (in %d instructions)\n\n", res.Output, res.Committed)
			fmt.Printf("%-40s %7s %9s %9s\n", "configuration", "IPC", "speedup", "captured")
		}
		captured := res.ReuseResultRate
		if c.opt.Technique == vpir.VP {
			captured = res.VPResultPred
		}
		fmt.Printf("%-40s %7.3f %8.2fx %8.1f%%\n", c.label, res.IPC, res.IPC/baseIPC, captured)
	}
	fmt.Println("\n\"captured\" = results reused (IR) or correctly predicted (VP), % of instructions")
}
