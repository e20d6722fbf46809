package emu

import (
	"github.com/vpir-sim/vpir/internal/isa"
)

// TraceLog is a compact columnar record of a program's correct-path
// execution, produced by the functional emulator. The timing core uses it
// for three things:
//
//   - the VP_Magic oracle selection policy (§4.1.1 of the paper) needs the
//     correct result of an instruction at prediction time;
//   - classifying spurious branch squashes (a squash whose branch's final
//     outcome agrees with the original prediction);
//   - golden verification: the committed instruction stream of the timing
//     core must equal this log exactly.
type TraceLog struct {
	PC     []uint32
	Result []isa.Word // destination value (0 when no destination)
	Addr   []uint32   // effective address for memory ops
	Taken  []bool     // direction for control ops

	Output   string
	ExitCode int
	Halted   bool
}

// Len returns the number of retired instructions in the log.
func (l *TraceLog) Len() int { return len(l.PC) }

// CollectTrace runs the program functionally for at most maxInsts
// instructions (0 = until halt) and returns the execution log.
func CollectTrace(c *CPU, maxInsts uint64) (*TraceLog, error) {
	log := &TraceLog{}
	// Pre-size for the capped case, up to 128 K entries (a cap is an upper
	// bound: a sampled interval's oracle may halt far short of it);
	// otherwise start at 64 K entries. Past the hint, double all four
	// columns in lockstep. Doubling by hand matters for long runs: the
	// runtime grows large slices by only 1.25x, which roughly doubles the
	// total bytes copied across the run, and the columns stay
	// capacity-synchronized (one length check per retirement).
	capHint := int(min(maxInsts, 1<<17))
	if capHint == 0 {
		capHint = 1 << 16
	}
	log.PC = make([]uint32, 0, capHint)
	log.Result = make([]isa.Word, 0, capHint)
	log.Addr = make([]uint32, 0, capHint)
	log.Taken = make([]bool, 0, capHint)
	prev := c.TraceFn
	c.TraceFn = func(t *Trace) {
		if len(log.PC) == cap(log.PC) {
			n := 2 * cap(log.PC)
			log.PC = append(make([]uint32, 0, n), log.PC...)
			log.Result = append(make([]isa.Word, 0, n), log.Result...)
			log.Addr = append(make([]uint32, 0, n), log.Addr...)
			log.Taken = append(make([]bool, 0, n), log.Taken...)
		}
		log.PC = append(log.PC, t.PC)
		log.Result = append(log.Result, t.DestVal)
		log.Addr = append(log.Addr, t.Addr)
		log.Taken = append(log.Taken, t.Taken)
		if prev != nil {
			prev(t)
		}
	}
	halted, err := c.Run(maxInsts)
	c.TraceFn = prev
	if err != nil {
		return nil, err
	}
	log.Output = c.Output.String()
	log.ExitCode = c.ExitCode
	log.Halted = halted
	return log, nil
}
