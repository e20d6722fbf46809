package core

import (
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

func TestKernelsOnTimingCore(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Load(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{DefaultConfig(), IRChoice(false), VPChoice(vp.Magic, SB, ME, 0), VPChoice(vp.LVP, SB, ME, 1)} {
				t.Run(cfg.Name(), func(t *testing.T) {
					t.Parallel()
					start := time.Now()
					m, err := New(p, cfg, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Run(0); err != nil {
						t.Fatalf("%s/%s: %v", name, cfg.Name(), err)
					}
					s := m.Stats()
					if m.Output() != w.Golden(1) {
						t.Errorf("%s/%s output mismatch", name, cfg.Name())
					}
					t.Logf("%-9s %-24s IPC=%.3f cyc=%8d bp=%.1f%% ret=%.1f%% reuse=%.1f%%/%.1f%% vp=%.1f%% cont=%.4f squash=%d in %v",
						name, cfg.Name(), s.IPC(), s.Cycles, s.BranchPredRate(), s.ReturnPredRate(),
						s.ReuseResultRate(), s.ReuseAddrRate(), func() float64 { p, _ := s.VPResultRates(); return p }(),
						s.Contention(), s.Squashes, time.Since(start).Round(time.Millisecond))
				})
			}
		})
	}
}
