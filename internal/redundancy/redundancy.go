// Package redundancy implements the limit study of §4.3 of the paper: how
// much result redundancy do programs contain, and how much of it is
// capturable by operand-based, non-speculative instruction reuse?
//
// Every result-producing dynamic instruction is classified as
//
//	unique      — produces a result for the first time,
//	repeated    — produces a result it has produced before,
//	derivable   — produces a result predictable from earlier results
//	              (a stride), and
//	unaccounted — the per-static-instruction instance buffer (10 K entries,
//	              as in the paper) was full, so the class is unknown.
//
// Redundancy = repeated + derivable (Figure 8). Repeated instructions are
// further classified by whether their inputs would be ready at an early
// reuse test (Figure 9), using the paper's heuristic: inputs are not ready
// if an unreused producer is fewer than 50 dynamic instructions ahead.
// Finally, the fraction of redundant instructions that is actually
// reusable — repeated, inputs ready, and operands matching an earlier
// instance — is the Figure 10 result (84–97% in the paper).
//
// As in the paper, this is an upper-bound study on the functional
// instruction stream: memory invalidation of buffered load results is not
// modeled here (the pipeline-level reuse buffer in internal/reuse does
// model it).
package redundancy

import (
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/prog"
)

// Config parameterizes the study; DefaultConfig matches §4.3.
type Config struct {
	// MaxInstances caps the buffered instances per static instruction.
	MaxInstances int
	// ProdDistance is the readiness horizon: an unreused producer closer
	// than this many dynamic instructions means the input is not ready.
	ProdDistance uint64
}

// DefaultConfig returns the paper's parameters (10 K instances, distance 50).
func DefaultConfig() Config {
	return Config{MaxInstances: 10_000, ProdDistance: 50}
}

// Result aggregates the classification counts.
type Result struct {
	Total uint64 // result-producing dynamic instructions

	// Figure 8.
	Unique      uint64
	Repeated    uint64
	Derivable   uint64
	Unaccounted uint64

	// Figure 9 (partition of Repeated).
	ProducersReused uint64 // ready: a nearby producer was itself reused
	ProdFar         uint64 // ready: unreused producers >= ProdDistance ahead
	ProdNear        uint64 // not ready: an unreused producer < ProdDistance

	// Figure 10.
	OperandMismatch uint64 // repeated & ready, but operand values are new
	Reusable        uint64 // repeated & ready & operands match
}

// Redundant returns repeated + derivable (the paper's definition).
func (r *Result) Redundant() uint64 { return r.Repeated + r.Derivable }

// pct returns n as a percent of d (0 when d is 0).
func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Percents is the limit study in the paper's units: the Figure 8
// classification and the Figure 10 redundancy as percents of all
// result-producing instructions, the Figure 9 readiness split as percents
// of the repeated ones.
type Percents struct {
	Total       uint64
	UniquePct   float64
	RepeatedPct float64
	DerivedPct  float64
	UnaccPct    float64

	ProducersReusedPct float64 // of repeated
	ProdFarPct         float64
	ProdNearPct        float64

	RedundantPct float64
	ReusablePct  float64 // of all instructions
	// ReusableOfRedundant is the Figure 10 headline (84-97% in the paper).
	ReusableOfRedundant float64
}

// Percents converts the counts into the figures' percentages.
func (r *Result) Percents() Percents {
	return Percents{
		Total:               r.Total,
		UniquePct:           pct(r.Unique, r.Total),
		RepeatedPct:         pct(r.Repeated, r.Total),
		DerivedPct:          pct(r.Derivable, r.Total),
		UnaccPct:            pct(r.Unaccounted, r.Total),
		ProducersReusedPct:  pct(r.ProducersReused, r.Repeated),
		ProdFarPct:          pct(r.ProdFar, r.Repeated),
		ProdNearPct:         pct(r.ProdNear, r.Repeated),
		RedundantPct:        pct(r.Redundant(), r.Total),
		ReusablePct:         pct(r.Reusable, r.Total),
		ReusableOfRedundant: pct(r.Reusable, r.Redundant()),
	}
}

// opSig is an operand-value signature of one execution instance.
type opSig struct {
	s1, s2 isa.Word
}

// static is the per-static-instruction tracking state.
type static struct {
	results  map[isa.Word]struct{} // distinct results seen
	operands map[opSig]isa.Word    // operand signature -> result produced
	last     isa.Word              // most recent result
	stride   isa.Word              // last - previous
	seen     int                   // results observed (for stride warmup)
	full     bool                  // instance buffer exhausted
}

// regState tracks the most recent writer of each architectural register.
type regState struct {
	seq    uint64
	reused bool
	valid  bool
	// unchanged means the write stored the value the register already
	// held: a consumer's reuse test then sees the correct operand value
	// even before the producer executes (the value-based revalidation of
	// the augmented S_{n+d} scheme).
	unchanged bool
}

// Analyzer consumes a functional instruction stream and produces a Result.
type Analyzer struct {
	cfg     Config
	table   map[uint32]*static
	regs    [isa.NumArchRegs]regState
	regVal  [isa.NumArchRegs]isa.Word
	regKnow [isa.NumArchRegs]bool
	result  Result
	// lastWasReusable is the classification of the instruction currently
	// being observed; it becomes the "reused producer" flag of its
	// destination register.
	lastWasReusable bool
}

// NewAnalyzer builds an analyzer.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg, table: make(map[uint32]*static)}
}

// Observe processes one retired instruction (an emu trace record).
func (a *Analyzer) Observe(t *emu.Trace) {
	in := t.Inst
	dest := in.Dest
	if dest == isa.NoReg || in.Op.Serializes() {
		return
	}
	a.result.Total++

	st := a.table[t.PC]
	if st == nil {
		st = &static{
			results:  make(map[isa.Word]struct{}),
			operands: make(map[opSig]isa.Word),
		}
		a.table[t.PC] = st
	}

	res := t.DestVal
	_, repeated := st.results[res]
	derivable := !repeated && st.seen >= 2 && res == st.last+st.stride

	a.lastWasReusable = false
	switch {
	case repeated:
		a.result.Repeated++
		a.classifyRepeated(t, st)
	case derivable:
		a.result.Derivable++
	case st.full:
		a.result.Unaccounted++
	default:
		a.result.Unique++
	}

	// Update the instance buffers.
	if !repeated {
		if len(st.results) < a.cfg.MaxInstances {
			st.results[res] = struct{}{}
		} else {
			st.full = true
		}
	}
	sig := a.sigOf(t)
	if _, ok := st.operands[sig]; ok || len(st.operands) < a.cfg.MaxInstances {
		st.operands[sig] = res // latest result for these operand values
	}
	if st.seen >= 1 {
		st.stride = res - st.last
	}
	st.last = res
	st.seen++

	// Record this instruction as its destination's most recent writer. The
	// "reused" flag says whether this very instruction would have been
	// reused, which feeds the producer-readiness heuristic downstream.
	a.regs[dest] = regState{
		seq:       t.Seq,
		reused:    a.lastWasReusable,
		valid:     true,
		unchanged: a.regKnow[dest] && a.regVal[dest] == res,
	}
	a.regVal[dest] = res
	a.regKnow[dest] = true
}

// lastWasReusable is set by classifyRepeated for the instruction currently
// being observed.
func (a *Analyzer) classifyRepeated(t *emu.Trace, st *static) {
	ready, viaReuse := true, false
	check := func(r isa.Reg) {
		if r == isa.NoReg || r == isa.RegZero {
			return
		}
		w := a.regs[r]
		if !w.valid {
			return // written before the window: long ago, ready
		}
		dist := t.Seq - w.seq
		switch {
		case w.reused || w.unchanged:
			viaReuse = true
		case dist >= a.cfg.ProdDistance:
			// far producer: ready
		default:
			ready = false
		}
	}
	check(t.Inst.Src1)
	check(t.Inst.Src2)

	a.lastWasReusable = false
	if !ready {
		a.result.ProdNear++
		return
	}
	if viaReuse {
		a.result.ProducersReused++
	} else {
		a.result.ProdFar++
	}
	// Operand match: an earlier instance computed this result from the
	// same operand values.
	if prev, ok := st.operands[a.sigOf(t)]; ok && prev == t.DestVal {
		a.result.Reusable++
		a.lastWasReusable = true
	} else {
		a.result.OperandMismatch++
	}
}

func (a *Analyzer) sigOf(t *emu.Trace) opSig {
	var sig opSig
	if t.Src1OK {
		sig.s1 = t.Src1Val
	}
	if t.Src2OK {
		sig.s2 = t.Src2Val
	}
	return sig
}

// Result returns the accumulated counts.
func (a *Analyzer) Result() Result { return a.result }

// Statics returns the number of distinct static instructions observed.
func (a *Analyzer) Statics() int { return len(a.table) }

// Analyze runs the program functionally for up to maxInsts instructions
// (0 = to completion) and classifies every result-producing instruction.
func Analyze(p *prog.Program, cfg Config, maxInsts uint64) (*Result, error) {
	cpu := emu.New(p)
	a := NewAnalyzer(cfg)
	cpu.TraceFn = a.Observe
	if _, err := cpu.Run(maxInsts); err != nil {
		return nil, err
	}
	r := a.Result()
	return &r, nil
}
