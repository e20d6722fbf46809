package workload

import (
	"fmt"
	"testing"

	"github.com/vpir-sim/vpir/internal/emu"
)

// kernelScales are the scales a doc, a help text or the benchmark runs the
// kernels at. Emulation under the race detector runs at about 3 M
// instructions/s, so race and -short runs check only 1, 2 and 8.
func kernelScales() []int {
	if testing.Short() || raceEnabled {
		return []int{1, 2, 8}
	}
	return []int{1, 2, 4, 8, 16, 64, 128}
}

// runKernel executes a workload on the functional emulator and returns its
// output. Every kernel retires under 2 M instructions per unit of scale, so
// the cap fails a kernel that stops halting within seconds.
func runKernel(t testing.TB, name string, scale int) string {
	t.Helper()
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(scale)
	if err != nil {
		t.Fatal(err)
	}
	c := emu.New(p)
	halted, err := c.Run(2_000_000 * uint64(scale))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !halted {
		t.Fatalf("%s did not halt within %d instructions", name, c.InstCount)
	}
	return c.Output.String()
}

// checkGolden runs one kernel at one scale, as a parallel subtest named by
// the scale, against its Go reimplementation.
func checkGolden(t *testing.T, w *Workload, scale int) {
	t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
		t.Parallel()
		if got, want := runKernel(t, w.Name, scale), w.Golden(scale); got != want {
			t.Errorf("output %q, want %q", got, want)
		}
	})
}

// TestKernelsMatchGolden verifies that every kernel halts and matches its
// Go reimplementation at every scale in use. Each scale runs under its own
// subtest named by the kernel, which Go numbers in scale order (perl/x1,
// perl#01/x2, …), so perl and perl#01 stay the ids of the ×1 and ×2 checks.
func TestKernelsMatchGolden(t *testing.T) {
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Errorf("missing kernel %s: %v", name, err)
			continue
		}
		for _, scale := range kernelScales() {
			scale := scale
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, w, scale)
			})
		}
	}
}

// TestKernelSizes reports the dynamic instruction counts; they must land in
// the range the harness assumes (big enough to exercise the tables, small
// enough to simulate quickly).
func TestKernelSizes(t *testing.T) {
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			continue // reported by TestKernelsMatchGolden
		}
		p, err := w.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		c := emu.New(p)
		if _, err := c.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-10s %9d dynamic instructions", name, c.InstCount)
		if c.InstCount < 50_000 {
			t.Errorf("%s too small: %d insts", name, c.InstCount)
		}
		if c.InstCount > 5_000_000 {
			t.Errorf("%s too large at scale 1: %d insts", name, c.InstCount)
		}
	}
}

// TestChaseMatchesGolden covers the chase stall diagnostic separately: it
// is registered (reachable through Get) but deliberately off the Names()
// roster, so the loop above never sees it.
func TestChaseMatchesGolden(t *testing.T) {
	w, err := Get("chase")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range kernelScales() {
		checkGolden(t, w, scale)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	if err := Register(&Workload{Name: "compress"}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestLoadCache(t *testing.T) {
	w, err := Get("compress")
	if err != nil {
		t.Skip("compress not registered")
	}
	p1, _ := w.Load(1)
	p2, _ := w.Load(1)
	if p1 != p2 {
		t.Error("Load(1) not cached")
	}
	p3, _ := w.Load(2)
	if p1 == p3 {
		t.Error("different scales share a program")
	}
}
