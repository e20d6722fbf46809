package technique

import (
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/workload"
)

// allocCeiling bounds the heap allocations of one whole simulation.
// Construction allocates a few thousand objects (the machine's structures,
// the run-ahead emulator and its oracle ring) and Reset almost none; the
// cycle loop allocates nothing. Every run stops at ceilingInsts committed
// instructions, so a single allocation per simulated instruction
// overshoots the ceiling fivefold.
const (
	allocCeiling = 10_000
	ceilingInsts = 50_000
)

// TestAllocCeiling measures allocations per simulation for every
// registered technique on compress, cold (core.New + Run) and on a reused
// machine (Reset + Run), so registering a technique buys its ceiling
// cells. Two configurations outside the registry take their own paths and
// are measured too: the base machine with an Observer attached, and the
// base machine on the chase kernel at a 60-cycle miss latency, where the
// core skips idle cycles. The subtests must stay sequential:
// testing.AllocsPerRun reads process-wide counters.
func TestAllocCeiling(t *testing.T) {
	type cell struct {
		name, bench string
		cfg         core.Config
		observe     bool
	}
	var cells []cell
	for _, tech := range All() {
		cfg, err := Resolve(tech.Name, Knobs{})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{name: tech.Name, bench: "compress", cfg: cfg})
	}
	stall := core.DefaultConfig()
	stall.DCache.MissLatency = 60
	cells = append(cells,
		cell{name: "base_observer", bench: "compress", cfg: core.DefaultConfig(), observe: true},
		cell{name: "base_stall", bench: "chase", cfg: stall})

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			w, err := workload.Get(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Load(1)
			if err != nil {
				t.Fatal(err)
			}
			run := func(m *core.Machine) {
				if c.observe {
					m.AttachObserver(core.NewObserver(0, 0))
				}
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				if n := m.Stats().Committed; n != ceilingInsts {
					t.Fatalf("committed %d instructions, want the %d cap", n, ceilingInsts)
				}
			}
			var m *core.Machine
			cold := testing.AllocsPerRun(1, func() {
				if m, err = core.New(p, c.cfg, ceilingInsts); err != nil {
					t.Fatal(err)
				}
				run(m)
			})
			reset := testing.AllocsPerRun(1, func() {
				if err := m.Reset(c.cfg); err != nil {
					t.Fatal(err)
				}
				run(m)
			})
			if cold > allocCeiling || reset > allocCeiling {
				t.Errorf("allocs per run: cold %.0f, reset %.0f; ceiling %d", cold, reset, allocCeiling)
			}
		})
	}
}
