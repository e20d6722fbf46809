package core

import (
	"errors"
	"testing"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// TestOracleWindowBounded: a whole-program run holds O(ROB) oracle, not
// O(program), both right after New and after the run.
func TestOracleWindowBounded(t *testing.T) {
	w, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	m, err := New(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	limit := 2 * cfg.ROBSize
	if c := cap(m.Oracle().PC); c > limit {
		t.Errorf("after New: oracle holds %d entries, want <= %d", c, limit)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	if c := cap(m.Oracle().PC); c > limit {
		t.Errorf("after Run: oracle holds %d entries, want <= %d", c, limit)
	}
	if got := m.Stats().Committed; got < 1_000_000 {
		t.Errorf("committed only %d instructions; the run is too short to show the bound", got)
	}
}

// faultKernel retires a loop and then jumps outside the text segment.
const faultKernel = `
        .text
main:   li    $t0, 0
loop:   addiu $t0, $t0, 1
        slti  $at, $t0, 50
        bnez  $at, loop
        li    $t1, 0x100
        jr    $t1
`

// TestMidProgramFaultSurfacesFromRun: a functional fault past the first
// instruction no longer fails New; Run returns it, wrapping *emu.Fault,
// once everything before it has committed, and nothing past it commits.
func TestMidProgramFaultSurfacesFromRun(t *testing.T) {
	p, err := asm.Assemble("fault.s", faultKernel)
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(p)
	_, refErr := ref.Run(0)
	var fault *emu.Fault
	if !errors.As(refErr, &fault) {
		t.Fatalf("emulator: want a fault, got %v", refErr)
	}
	for _, cfg := range []Config{DefaultConfig(), IRChoice(false), VPChoice(vp.Magic, SB, ME, 0),
		HybridConfChoice(vp.LVP, NSB, NME, 1)} {
		t.Run(cfg.Name(), func(t *testing.T) {
			m, err := New(p, cfg, 0)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			err = m.Run(100_000)
			if !errors.As(err, &fault) {
				t.Fatalf("Run: want an error wrapping *emu.Fault, got %v", err)
			}
			if got := m.Stats().Committed; got != ref.InstCount {
				t.Errorf("committed %d instructions, the emulator retired %d before faulting", got, ref.InstCount)
			}
			if m.Halted() {
				t.Error("a faulted machine reports a halted program")
			}
		})
	}
}

// TestEmptyProgramFailsNew: a program with no instructions still fails at
// construction, with the emulator's fault.
func TestEmptyProgramFailsNew(t *testing.T) {
	p, err := asm.Assemble("empty.s", "        .text\nmain:\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(p, DefaultConfig(), 0)
	var fault *emu.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("New: want an error wrapping *emu.Fault, got %v", err)
	}
}
