package harness

import (
	"context"
	"errors"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/vp"
)

// sweepTestCells is a small multi-config grid: every benchmark in the grid
// runs several configurations, so worker-local machine reuse (Reset) is
// actually exercised.
func sweepTestCells() []SweepCell {
	return Grid(
		[]string{"compress", "m88ksim", "go"},
		[]core.Config{
			core.DefaultConfig(),
			core.IRChoice(false),
			core.VPChoice(vp.Stride, core.SB, core.ME, 1),
			core.HybridChoice(vp.Stride, core.SB, core.ME, 1),
		})
}

// sweepRunner is fastRunner without the shared cache masking reuse: each
// call builds a fresh Runner so two sweeps never share cached Stats.
func sweepRunner(parallelism int) *Runner {
	r := NewRunner()
	r.MaxInsts = 30_000
	r.Parallelism = parallelism
	return r
}

// TestSweepParallelMatchesSerial is the sweep determinism contract: the
// same grid swept serially and with several workers (each reusing machines
// across configurations) must produce bit-identical Stats, cell for cell.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cells := sweepTestCells()
	serial := sweepRunner(1).Sweep(context.Background(), cells)
	parallel := sweepRunner(4).Sweep(context.Background(), cells)
	if len(serial) != len(cells) || len(parallel) != len(cells) {
		t.Fatalf("result lengths %d/%d, want %d", len(serial), len(parallel), len(cells))
	}
	for i, c := range cells {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("cell %d (%s/%s): serial err=%v parallel err=%v", i, c.Bench, c.Cfg.Name(), s.Err, p.Err)
		}
		if s.Bench != c.Bench || p.Bench != c.Bench {
			t.Fatalf("cell %d results out of order: %s/%s, want %s", i, s.Bench, p.Bench, c.Bench)
		}
		if s.Stats != p.Stats {
			t.Errorf("cell %d (%s/%s): parallel Stats differ from serial\n serial:   %+v\n parallel: %+v",
				i, c.Bench, c.Cfg.Name(), s.Stats, p.Stats)
		}
	}
}

// TestSweepCancellation: a cancelled context stops the sweep promptly; every
// unstarted cell reports the context error, and the result slice still has
// one entry per cell in order.
func TestSweepCancellation(t *testing.T) {
	r := sweepRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the sweep: every cell must be skipped
	results := r.Sweep(ctx, sweepTestCells())
	if len(results) != len(sweepTestCells()) {
		t.Fatalf("got %d results, want %d", len(results), len(sweepTestCells()))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestSweepPartialResults: per-cell failures surface in that cell's Err
// without aborting the rest of the sweep.
func TestSweepPartialResults(t *testing.T) {
	r := sweepRunner(2)
	boom := errors.New("synthetic failure")
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		if bench == "m88ksim" {
			return core.Stats{}, boom
		}
		return core.Stats{Committed: 1}, nil
	}
	cells := sweepTestCells()
	for i, res := range r.Sweep(context.Background(), cells) {
		if cells[i].Bench == "m88ksim" {
			if !errors.Is(res.Err, boom) {
				t.Errorf("cell %d: err = %v, want synthetic failure", i, res.Err)
			}
			continue
		}
		if res.Err != nil || res.Stats.Committed != 1 {
			t.Errorf("cell %d (%s): err=%v stats=%+v, want success", i, cells[i].Bench, res.Err, res.Stats)
		}
	}
}

// TestSweepRecoversPanicAndDropsMachine: a panicking cell becomes an error,
// and the sweep keeps going — including further cells for the same
// benchmark on the same worker, which must rebuild the machine rather than
// reuse one abandoned mid-update.
func TestSweepRecoversPanicAndDropsMachine(t *testing.T) {
	r := sweepRunner(1)
	calls := 0
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		calls++
		if calls == 1 {
			panic("rogue index out of range")
		}
		return core.Stats{Committed: uint64(calls)}, nil
	}
	cells := Grid([]string{"compress"}, []core.Config{core.DefaultConfig(), core.IRChoice(false)})
	results := r.Sweep(context.Background(), cells)
	if results[0].Err == nil {
		t.Fatal("panic was not converted to an error")
	}
	if results[1].Err != nil {
		t.Fatalf("sweep did not continue past a panic: %v", results[1].Err)
	}
}
