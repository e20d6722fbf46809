// Command vpir-trace renders a SimpleScalar-style pipeline diagram for the
// first N instructions of a benchmark or program under a chosen
// configuration — the quickest way to *see* how IR collapses dependence
// chains at decode and how VP overlaps dependent executions.
//
// Usage:
//
//	vpir-trace -bench compress -tech ir -n 40
//	vpir-trace -file prog.s -tech vp -scheme magic -n 60
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	file := flag.String("file", "", "assembly source file")
	scale := flag.Int("scale", 1, "workload scale")
	tech := flag.String("tech", "base",
		"technique: "+strings.Join(technique.Names(), ", "))
	scheme := flag.String("scheme", "", "vp scheme: magic (default), lvp, stride, 2delta or fcm")
	resolution := flag.String("resolution", "", "vp branch resolution: sb (default) or nsb")
	vlat := flag.Int("vlat", 0, "vp verification latency")
	n := flag.Int("n", 48, "number of instructions to trace")
	cols := flag.Int("cols", 100, "max cycle columns to render")
	flag.Parse()

	var p *prog.Program
	var err error
	switch {
	case *bench != "":
		w, werr := workload.Get(*bench)
		if werr != nil {
			fail(werr)
		}
		p, err = w.Load(*scale)
	case *file != "":
		var src []byte
		if src, err = os.ReadFile(*file); err == nil {
			p, err = asm.Assemble(*file, string(src))
		}
	default:
		fmt.Fprintln(os.Stderr, "vpir-trace: need -bench or -file")
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	cfg, err := technique.Resolve(*tech, technique.Knobs{
		Scheme:           *scheme,
		BranchResolution: *resolution,
		VerifyLatency:    *vlat,
	})
	if err != nil {
		fail(err)
	}

	m, err := core.New(p, cfg, 0)
	if err != nil {
		fail(err)
	}
	tr := &core.PipeTracer{Max: *n}
	m.Trace(tr)
	if err := m.Run(0); err != nil {
		fail(err)
	}
	fmt.Printf("%s under %q — first %d instructions\n\n", p.Name, cfg.Name(), len(tr.Events))
	tr.Render(os.Stdout, *cols)
	s := m.Stats()
	fmt.Printf("\nwhole run: %d insts in %d cycles (IPC %.3f)\n", s.Committed, s.Cycles, s.IPC())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "vpir-trace: %v\n", err)
	os.Exit(1)
}
