package core_test

import (
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

// TestOracleWindowInvariant checks the oracle window's sizing argument on
// every cycle of a branchy kernel under every registered technique: the
// correct-path span the core can read never outgrows the ring.
func TestOracleWindowInvariant(t *testing.T) {
	w, err := workload.Get("go")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range technique.All() {
		t.Run(tech.Name, func(t *testing.T) {
			cfg, err := technique.Resolve(tech.Name, technique.Knobs{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.New(p, cfg, 30_000)
			if err != nil {
				t.Fatal(err)
			}
			var violation error
			m.OnCycle(func(uint64) {
				if violation == nil {
					violation = m.OracleWindowViolation()
				}
			})
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			if violation == nil {
				violation = m.OracleWindowViolation()
			}
			if violation != nil {
				t.Fatal(violation)
			}
			if got := m.Stats().Committed; got != 30_000 {
				t.Fatalf("committed %d instructions, want the 30000 cap", got)
			}
		})
	}
}
