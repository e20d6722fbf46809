// Package prog defines the loadable program image produced by the assembler
// and consumed by the functional emulator and the timing simulator.
package prog

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/isa"
)

// Standard memory layout. The layout mirrors the classic MIPS/SimpleScalar
// convention: text low, static data in the middle, stack growing down from
// high memory.
const (
	TextBase  uint32 = 0x0040_0000
	DataBase  uint32 = 0x1000_0000
	StackTop  uint32 = 0x7FFF_F000
	HeapBase  uint32 = 0x2000_0000 // available to workloads for scratch space
	CacheLine        = 32          // bytes, per Table 1
)

// Program is a fully linked program image.
type Program struct {
	Name     string
	Entry    uint32            // initial PC
	Text     []uint32          // instruction words, loaded at TextBase
	Data     []byte            // static data, loaded at DataBase
	Symbols  map[string]uint32 // label -> address
	SrcLines map[uint32]int    // text address -> source line (for diagnostics)
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint32 { return TextBase + uint32(4*len(p.Text)) }

// InText reports whether addr falls inside the text segment.
func (p *Program) InText(addr uint32) bool {
	return addr >= TextBase && addr < p.TextEnd()
}

// FetchWord returns the instruction word at addr, or 0 (which decodes to an
// invalid instruction) when addr is outside the text segment.
func (p *Program) FetchWord(addr uint32) uint32 {
	if !p.InText(addr) || addr&3 != 0 {
		return 0
	}
	return p.Text[(addr-TextBase)/4]
}

// Symbol returns the address of a label.
func (p *Program) Symbol(name string) (uint32, error) {
	a, ok := p.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("prog: no symbol %q in %s", name, p.Name)
	}
	return a, nil
}

// MustSymbol is Symbol but panics on a missing label.
//
// It is for tests and workload *construction* only — code paths where the
// label is statically known to exist and a panic is a programming error.
// Production load paths (workload.Workload.Load, the harness Runner, the
// command-line tools) must use Symbol and propagate the error: a missing
// symbol there is bad input, not a bug, and long simulation campaigns must
// degrade to a per-run error instead of crashing the campaign. (The harness
// additionally converts stray panics in a run to errors, but that is a
// backstop, not an excuse.)
func (p *Program) MustSymbol(name string) uint32 {
	a, err := p.Symbol(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Decoded returns the pre-decoded text segment. Decoding once up front keeps
// both the emulator and the timing simulator fast.
func (p *Program) Decoded() []isa.Inst {
	out := make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		out[i] = isa.Decode(w)
	}
	return out
}
