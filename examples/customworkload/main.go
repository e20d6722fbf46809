// Customworkload shows how to bring your own program: write a kernel in
// the simulator's assembly dialect, register it as a benchmark, and compare
// how VP and IR exploit its redundancy.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"github.com/vpir-sim/vpir"
)

// A string-matching kernel: count occurrences of a 4-byte needle in a
// haystack, repeatedly (think grep inner loop). Highly repetitive: the
// needle loads never change, and most window comparisons fail the same way.
const source = `
        .data
hay:    .space 2048
needle: .byte 'a', 'b', 'a', 'b'
        .text
main:   li    $s7, 0x5EED
        # build a haystack over the alphabet {a, b}
        la    $s0, hay
        li    $s1, 0
gen:    jal   rand
        andi  $t0, $v1, 1
        addiu $t0, $t0, 'a'
        addu  $t1, $s0, $s1
        sb    $t0, 0($t1)
        addiu $s1, $s1, 1
        li    $at, 2048
        blt   $s1, $at, gen

        li    $s4, 0          # match count
        li    $s5, 0          # round
round:  li    $s1, 0
scan:   addu  $t0, $s0, $s1
        la    $t9, needle
        li    $t2, 0          # offset
cmp:    addu  $t3, $t0, $t2
        lbu   $t4, 0($t3)
        addu  $t5, $t9, $t2
        lbu   $t6, 0($t5)
        bne   $t4, $t6, nomatch
        addiu $t2, $t2, 1
        slti  $at, $t2, 4
        bnez  $at, cmp
        addiu $s4, $s4, 1     # full match
nomatch:
        addiu $s1, $s1, 1
        li    $at, 2044
        blt   $s1, $at, scan
        addiu $s5, $s5, 1
        slti  $at, $s5, 10
        bnez  $at, round

        move  $a0, $s4
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall

rand:   li    $at, 1103515245
        mult  $s7, $at
        mflo  $s7
        addiu $s7, $s7, 12345
        srl   $v1, $s7, 16
        andi  $v1, $v1, 0x7FFF
        jr    $ra
`

func main() {
	if err := vpir.RegisterBenchmark("strmatch", "4-byte needle search over generated text", source, nil); err != nil {
		log.Fatal(err)
	}

	base, err := vpir.RunBenchmark("strmatch", 1, vpir.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strmatch: %s matches, %d instructions, base IPC %.3f\n\n",
		base.Output, base.Committed, base.IPC)

	fmt.Printf("%-34s %7s %9s %22s\n", "configuration", "IPC", "speedup", "redundancy captured")
	for _, c := range []struct {
		label string
		opt   vpir.Options
	}{
		{"instruction reuse", vpir.Options{Technique: vpir.IR}},
		{"IR, late validation (fig 3)", vpir.Options{Technique: vpir.IR, Knobs: vpir.Knobs{LateValidation: true}}},
		{"VP_Magic ME-SB", vpir.Options{Technique: vpir.VP}},
		{"VP_LVP ME-SB", vpir.Options{Technique: vpir.VP, Knobs: vpir.Knobs{Scheme: "lvp"}}},
	} {
		res, err := vpir.RunBenchmark("strmatch", 1, c.opt)
		if err != nil {
			log.Fatal(err)
		}
		captured := fmt.Sprintf("%.1f%% reused", res.ReuseResultRate)
		if c.opt.Technique == vpir.VP {
			captured = fmt.Sprintf("%.1f%% predicted", res.VPResultPred)
		}
		fmt.Printf("%-34s %7.3f %8.2fx %22s\n", c.label, res.IPC, res.IPC/base.IPC, captured)
	}

	r, err := vpir.AnalyzeRedundancy("strmatch", 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlimit study: %.1f%% of results are redundant; %.1f%% of that is reusable\n",
		r.RedundantPct, r.ReusableOfRedundant)
}
