package redundancy

import (
	"testing"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/workload"
)

func analyze(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRepeatedResultsDetected(t *testing.T) {
	// The same computation on the same values, many times: after the first
	// iteration everything is repeated.
	r := analyze(t, `
        .text
main:   li   $s0, 0
loop:   li   $t0, 6         # same results every iteration
        li   $t1, 7
        mul  $t2, $t0, $t1
        addu $t3, $t2, $t0
        addiu $s0, $s0, 1
        slti $at, $s0, 50
        bnez $at, loop
        li   $v0, 10
        syscall
`, DefaultConfig())
	if r.Total == 0 {
		t.Fatal("no instructions classified")
	}
	if got := r.Percents().RepeatedPct; got < 75 {
		t.Errorf("repeated%% = %.1f, want > 75 for a constant loop", got)
	}
	if r.Unaccounted != 0 {
		t.Errorf("unaccounted = %d with tiny working set", r.Unaccounted)
	}
}

func TestStrideDerivable(t *testing.T) {
	// The loop induction variable walks a stride: derivable, not repeated.
	r := analyze(t, `
        .text
main:   li   $s0, 0
loop:   addiu $s0, $s0, 4    # 4, 8, 12, ... all distinct, stride 4
        li   $at, 400
        blt  $s0, $at, loop
        li   $v0, 10
        syscall
`, DefaultConfig())
	// ~100 iterations: nearly every addiu instance must classify as
	// derivable (the loop-control li/slt results are repeated, not strided).
	if r.Derivable < 90 {
		t.Errorf("derivable = %d, want >= 90 for a stride walker", r.Derivable)
	}
}

func TestUniqueResults(t *testing.T) {
	// Values derived from an LCG: mostly unique (the multiply scrambles
	// any stride).
	r := analyze(t, `
        .text
main:   li   $s0, 12345
        li   $s1, 0
loop:   li   $at, 1103515245
        mult $s0, $at
        mflo $s0
        addiu $s0, $s0, 12345
        addiu $s1, $s1, 1
        slti $at, $s1, 100
        bnez $at, loop
        li   $v0, 10
        syscall
`, DefaultConfig())
	if r.Unique == 0 {
		t.Error("LCG stream produced no unique results")
	}
}

func TestUnaccountedWhenBufferFull(t *testing.T) {
	cfg := Config{MaxInstances: 8, ProdDistance: 50}
	// 100 distinct results from one static instruction with a scrambling
	// multiply: after 8 instances the buffer is full.
	r := analyze(t, `
        .text
main:   li   $s0, 1
        li   $s1, 0
loop:   li   $at, 214013
        mult $s0, $at
        mflo $s0
        addiu $s0, $s0, 25310
        addiu $s1, $s1, 1
        slti $at, $s1, 100
        bnez $at, loop
        li   $v0, 10
        syscall
`, cfg)
	if r.Unaccounted == 0 {
		t.Error("full instance buffer produced no unaccounted results")
	}
}

func TestReusableWithFarProducers(t *testing.T) {
	// s1/s2 are set once, far before the loop: every operand is ready and
	// every iteration repeats the same computation — fully reusable.
	r := analyze(t, `
        .text
main:   li   $s1, 123
        li   $s2, 456
        li   $s0, 0
loop:   xor  $t2, $s1, $s2
        addu $t3, $s1, $s2
        and  $t4, $s1, $s2
        addiu $s0, $s0, 1
        slti $at, $s0, 60
        bnez $at, loop
        li   $v0, 10
        syscall
`, DefaultConfig())
	if r.Reusable == 0 {
		t.Error("nothing reusable in a repetitive loop with far producers")
	}
	if r.Reusable < r.Repeated/2 {
		t.Errorf("reusable %d should dominate repeated %d here", r.Reusable, r.Repeated)
	}
}

func TestUnchangedValueSeedsReadiness(t *testing.T) {
	// t0 is rewritten every iteration with the same value: consumers of t0
	// are ready through the unchanged-value rule even though the producer
	// is nearby.
	r := analyze(t, `
        .text
main:   li   $s0, 0
loop:   li   $t0, 9         # same value every iteration
        sll  $t1, $t0, 2    # consumer of a near-but-unchanged producer
        addiu $s0, $s0, 1
        slti $at, $s0, 50
        bnez $at, loop
        li   $v0, 10
        syscall
`, DefaultConfig())
	if r.ProducersReused == 0 {
		t.Error("unchanged-value producers never seeded readiness")
	}
}

func TestProdNearBlocksReadiness(t *testing.T) {
	// A tight dependence chain: every repeated instruction's producer is
	// the immediately preceding instruction, and nothing is ever reused
	// (results alternate), so inputs are never ready.
	cfg := DefaultConfig()
	r := analyze(t, `
        .text
main:   li   $s0, 0
        li   $t0, 1
loop:   xor  $t0, $t0, $s1   # chain through t0
        xor  $t0, $t0, $s2
        xori $t0, $t0, 1
        addiu $s0, $s0, 1
        slti $at, $s0, 80
        bnez $at, loop
        li   $v0, 10
        syscall
`, cfg)
	if r.Repeated > 0 && r.ProdNear == 0 {
		t.Error("tight chains should produce not-ready repeated instructions")
	}
}

func TestFig9PartitionsRepeated(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(p, DefaultConfig(), 200_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ProducersReused + r.ProdFar + r.ProdNear; got != r.Repeated {
			t.Errorf("%s: Fig 9 partition %d != repeated %d", name, got, r.Repeated)
		}
		if got := r.Unique + r.Repeated + r.Derivable + r.Unaccounted; got != r.Total {
			t.Errorf("%s: Fig 8 partition %d != total %d", name, got, r.Total)
		}
		if r.Reusable+r.OperandMismatch != r.ProducersReused+r.ProdFar {
			t.Errorf("%s: reuse split %d+%d != ready %d", name,
				r.Reusable, r.OperandMismatch, r.ProducersReused+r.ProdFar)
		}
	}
}

// TestPaperShape: across the kernels, most instructions are redundant and
// most redundancy is reusable — the 84-97%% headline of §4.3.
func TestPaperShape(t *testing.T) {
	for _, name := range workload.Names() {
		w, _ := workload.Get(name)
		p, err := w.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(p, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		pc := r.Percents()
		red, reusable := pc.RedundantPct, pc.ReusableOfRedundant
		t.Logf("%-9s total=%8d redundant=%5.1f%% (rep %.1f der %.1f uniq %.1f unacc %.1f) reusable=%5.1f%%",
			name, r.Total, red, pc.RepeatedPct, pc.DerivedPct, pc.UniquePct, pc.UnaccPct, reusable)
		if red < 30 {
			t.Errorf("%s: redundancy %.1f%% implausibly low", name, red)
		}
		if reusable < 40 {
			t.Errorf("%s: reusable share %.1f%% implausibly low", name, reusable)
		}
	}
}

func TestAnalyzeBadProgram(t *testing.T) {
	p := &prog.Program{Text: []uint32{0}, Symbols: map[string]uint32{}}
	p.Entry = prog.TextBase
	if _, err := Analyze(p, DefaultConfig(), 10); err == nil {
		t.Error("invalid program must fail")
	}
}
