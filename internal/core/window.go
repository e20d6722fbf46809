package core

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
)

// oracleWindow is the correct-path functional stream the timing core is
// checked against, held only as far as the core can look into it.
//
// The core reads trace indexes only through ROB entries: decode reads
// traceCursor, commit reads commitCursor, and branch resolution and squash
// repair read traceIdx+1 of an in-flight entry. Every correct-path entry
// between the two cursors is in the ROB, so the live range is
// [commitCursor, commitCursor+ROBSize] — ROBSize+1 indexes. The window is
// a ring of the next power of two at least that large, filled on demand by
// a producer and trimmed as instructions commit.
//
// The producer is either a run-ahead functional emulator started at the
// program entry (New, Reset) or a log collected beforehand from a sampling
// checkpoint (NewRestored, ResetTo). Both feed the same ring; only the
// source of the records differs.
type oracleWindow struct {
	pc     []uint32
	result []isa.Word
	addr   []uint32
	taken  []bool
	mask   int64

	lo int64 // oldest index still needed: the commit cursor
	n  int64 // indexes below n have been produced

	// cpu is the run-ahead emulator; it stops after max instructions
	// (0 = no cap) or at halt. It is kept across ResetTo so a later Reset
	// can rewind it instead of building another.
	cpu *emu.CPU
	max uint64
	// log, when non-nil, replaces cpu as the producer.
	log *emu.TraceLog

	done bool  // the producer has delivered everything it will
	err  error // the functional fault that ended the stream, if any
}

// size (re)allocates the ring for a ROB of robSize entries, keeping the
// storage when the size is unchanged.
func (w *oracleWindow) size(robSize int) {
	n := 1
	for n < robSize+1 {
		n <<= 1
	}
	if len(w.pc) == n {
		return
	}
	w.pc = make([]uint32, n)
	w.result = make([]isa.Word, n)
	w.addr = make([]uint32, n)
	w.taken = make([]bool, n)
	w.mask = int64(n - 1)
}

// rewind restarts the stream at index 0.
func (w *oracleWindow) rewind() {
	w.lo, w.n = 0, 0
	w.done, w.err = false, nil
}

// stream makes the emulator, rewound to the program entry, the producer.
func (w *oracleWindow) stream(m *Machine) {
	if w.cpu == nil {
		w.cpu = emu.New(m.prog)
		w.cpu.TraceFn = w.record
	} else {
		w.cpu.Reset()
	}
	w.max = m.maxInsts
	w.log = nil
	w.rewind()
}

// replay makes a precollected log the producer.
func (w *oracleWindow) replay(log *emu.TraceLog) {
	w.log = log
	w.rewind()
}

// start produces index 0 of a fresh stream, so a program that faults on
// its first instruction fails at construction rather than in Run. The
// emulator always retires or faults on its first step, so a missing index
// 0 means a fault.
func (w *oracleWindow) start() error {
	if !w.has(0) {
		return fmt.Errorf("core: functional oracle: %w", w.err)
	}
	return nil
}

// has reports whether correct-path index i exists, producing it if needed.
// i must not precede the last trim.
func (w *oracleWindow) has(i int64) bool {
	return i < w.n || w.fill(i)
}

// trim releases every index below lo; commit calls it as it retires.
func (w *oracleWindow) trim(lo int64) { w.lo = lo }

// The column accessors read an index has reported present.
func (w *oracleWindow) pcAt(i int64) uint32       { return w.pc[i&w.mask] }
func (w *oracleWindow) resultAt(i int64) isa.Word { return w.result[i&w.mask] }
func (w *oracleWindow) addrAt(i int64) uint32     { return w.addr[i&w.mask] }
func (w *oracleWindow) takenAt(i int64) bool      { return w.taken[i&w.mask] }

// record is the emulator's TraceFn: it appends one retirement to the ring.
func (w *oracleWindow) record(t *emu.Trace) {
	s := w.n & w.mask
	w.pc[s], w.result[s], w.addr[s], w.taken[s] = t.PC, t.DestVal, t.Addr, t.Taken
	w.n++
}

// fill produces records until index i exists or the producer is done,
// running ahead to the end of the ring so refills come in batches.
func (w *oracleWindow) fill(i int64) bool {
	hi := w.lo + int64(len(w.pc))
	if i >= hi {
		panic(fmt.Sprintf("core: oracle index %d beyond the window [%d, %d)", i, w.lo, hi))
	}
	if w.done {
		return false
	}
	if w.log != nil {
		end := min(hi, int64(w.log.Len()))
		for ; w.n < end; w.n++ {
			s := w.n & w.mask
			w.pc[s], w.result[s] = w.log.PC[w.n], w.log.Result[w.n]
			w.addr[s], w.taken[s] = w.log.Addr[w.n], w.log.Taken[w.n]
		}
		w.done = w.n == int64(w.log.Len())
		return i < w.n
	}
	k := uint64(hi - w.n)
	if w.max > 0 {
		k = min(k, w.max-w.cpu.InstCount)
	}
	if k > 0 {
		halted, err := w.cpu.Run(k)
		w.done = halted || err != nil
		w.err = err
	}
	if w.max > 0 && w.cpu.InstCount >= w.max {
		w.done = true
	}
	return i < w.n
}

// traceLog views the window as an emu.TraceLog: the ring's columns (index
// i lives at i modulo their length) with the producer's output, exit code
// and halt flag.
func (w *oracleWindow) traceLog() *emu.TraceLog {
	l := &emu.TraceLog{PC: w.pc, Result: w.result, Addr: w.addr, Taken: w.taken}
	if w.log != nil {
		l.Output, l.ExitCode, l.Halted = w.log.Output, w.log.ExitCode, w.log.Halted
	} else {
		l.Output, l.ExitCode, l.Halted = w.cpu.Output.String(), w.cpu.ExitCode, w.cpu.Halted
	}
	return l
}
