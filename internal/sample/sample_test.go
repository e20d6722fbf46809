package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

// allTechniques is the full technique matrix every sampling invariant must
// hold across: every registered technique at default knobs, so a newly
// registered scheme inherits the bit-identity, order-independence and
// checkpoint round-trip gates with no test change.
func allTechniques() map[string]core.Config {
	out := make(map[string]core.Config, 8)
	for _, name := range technique.Names() {
		cfg, err := technique.Resolve(name, technique.Knobs{})
		if err != nil {
			panic(err)
		}
		out[name] = cfg
	}
	return out
}

func loadBench(t *testing.T, name string) *prog.Program {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runFull is the non-sampled reference: core.New + run to halt.
func runFull(t *testing.T, p *prog.Program, cfg core.Config, maxInsts uint64) (*core.Machine, core.Stats) {
	t.Helper()
	m, err := core.New(p, cfg, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return m, m.Stats()
}

// runSampled executes the plan end to end in-process: fast-forward, one
// restored machine per interval (in the given order), stitch.
func runSampled(t *testing.T, p *prog.Program, cfg core.Config, plan Plan, maxInsts uint64, order []int) *Summary {
	t.Helper()
	ff, err := FastForward(p, cfg, plan, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if order == nil {
		order = make([]int, len(ff.Checkpoints))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(ff.Checkpoints) {
		t.Fatalf("order has %d entries, plan has %d checkpoints", len(order), len(ff.Checkpoints))
	}
	ivs := make([]IntervalResult, len(ff.Checkpoints))
	var m *core.Machine
	for _, k := range order {
		ck, warm, measured, err := ff.IntervalSpec(k)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := IntervalOracle(p, ck, warm+measured)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			m, err = core.NewRestored(p, cfg, ck.State, oracle)
		} else {
			err = m.ResetTo(cfg, ck.State, oracle)
		}
		if err != nil {
			t.Fatal(err)
		}
		iv, err := DriveInterval(context.Background(), m, ck, warm)
		if err != nil {
			t.Fatal(err)
		}
		ivs[k] = iv
	}
	sum, err := Stitch(ff, ivs)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestSingleIntervalBitIdentity is the differential gate: a plan covering
// the whole program in one interval must produce core.Stats bit-identical
// to a non-sampled run, for every registered technique, plus identical output and
// exit code.
func TestSingleIntervalBitIdentity(t *testing.T) {
	const maxInsts = 40_000
	p := loadBench(t, "compress")
	for name, cfg := range allTechniques() {
		t.Run(name, func(t *testing.T) {
			m, want := runFull(t, p, cfg, maxInsts)
			sum := runSampled(t, p, cfg, Plan{Interval: 1 << 40}, maxInsts, nil)
			if sum.Intervals != 1 {
				t.Fatalf("expected one interval, got %d", sum.Intervals)
			}
			if !sum.Exact {
				t.Fatal("single full interval must be an exact aggregate")
			}
			if sum.Stats != want {
				t.Fatalf("stitched stats differ from the non-sampled run:\n got %+v\nwant %+v", sum.Stats, want)
			}
			if sum.Output != m.Output() {
				t.Fatalf("output differs: %q vs %q", sum.Output, m.Output())
			}
			if sum.ExitCode != m.ExitCode() {
				t.Fatalf("exit code %d vs %d", sum.ExitCode, m.ExitCode())
			}
		})
	}
}

// TestShuffledIntervalDeterminism runs a multi-interval plan in index order
// and in a shuffled order on a reused (ResetTo) machine; the stitched
// summaries must be bit-identical — interval execution order is
// unobservable. Full coverage also pins the exact-aggregation contract:
// every committed instruction is counted exactly once.
func TestShuffledIntervalDeterminism(t *testing.T) {
	const maxInsts = 48_000
	p := loadBench(t, "go")
	plan := Plan{Interval: 8_000, Every: 1, Warmup: 0}
	for name, cfg := range allTechniques() {
		t.Run(name, func(t *testing.T) {
			inOrder := runSampled(t, p, cfg, plan, maxInsts, nil)
			n := inOrder.Intervals
			order := rand.New(rand.NewSource(42)).Perm(n)
			shuffled := runSampled(t, p, cfg, plan, maxInsts, order)
			if inOrder.Stats != shuffled.Stats {
				t.Fatalf("stitched stats depend on interval order:\n got %+v\nwant %+v", shuffled.Stats, inOrder.Stats)
			}
			if inOrder.SampledInsts != uint64(maxInsts) {
				t.Fatalf("full coverage measured %d of %d instructions", inOrder.SampledInsts, maxInsts)
			}
			if !inOrder.Exact {
				t.Fatal("full coverage must aggregate exactly")
			}
			// Contiguous zero-warmup coverage reassembles the output.
			m, _ := runFull(t, p, cfg, maxInsts)
			if inOrder.Output != m.Output() {
				t.Fatalf("reassembled output differs: %q vs %q", inOrder.Output, m.Output())
			}
		})
	}
}

// TestWarmupSubtraction checks the warmup accounting: with detailed warmup,
// each interval's measured instruction count still equals the plan interval
// (warmup discarded), and sparse sampling scales totals to the program.
func TestWarmupSubtraction(t *testing.T) {
	const maxInsts = 60_000
	p := loadBench(t, "perl")
	plan := Plan{Interval: 5_000, Every: 2, Warmup: 2_000}
	cfg := core.IRChoice(false)
	sum := runSampled(t, p, cfg, plan, maxInsts, nil)
	if sum.Exact {
		t.Fatal("sparse plan cannot be exact")
	}
	if sum.Coverage <= 0.3 || sum.Coverage >= 0.7 {
		t.Fatalf("every=2 coverage = %.2f, expected ≈0.5", sum.Coverage)
	}
	// The ratio estimator scales committed instructions back to the total.
	if got := sum.Stats.Committed; got != maxInsts {
		t.Fatalf("scaled committed = %d, want %d", got, maxInsts)
	}
	if len(sum.CIs) == 0 {
		t.Fatal("summary carries no confidence intervals")
	}
	for _, ci := range sum.CIs {
		if ci.Name == "ipc" && ci.Mean <= 0 {
			t.Fatalf("ipc mean %v", ci.Mean)
		}
	}
}

// TestCheckpointRoundTrip is the serialization gate: encode → decode →
// encode must be byte-identical, and a machine restored from the decoded
// checkpoint must behave identically, across every registered technique.
func TestCheckpointRoundTrip(t *testing.T) {
	const maxInsts = 30_000
	p := loadBench(t, "m88ksim")
	plan := Plan{Interval: 10_000, Every: 1, Warmup: 1_000}
	for name, cfg := range allTechniques() {
		t.Run(name, func(t *testing.T) {
			ff, err := FastForward(p, cfg, plan, maxInsts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ff.Checkpoints) < 2 {
				t.Fatalf("plan produced %d checkpoints", len(ff.Checkpoints))
			}
			ck := &ff.Checkpoints[1] // a warmed, mid-program checkpoint
			b1, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeCheckpoint(b1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("serialize→restore→serialize is not byte-identical")
			}

			// The decoded checkpoint must drive an identical interval.
			_, warm, measured, err := ff.IntervalSpec(1)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := IntervalOracle(p, ck, warm+measured)
			if err != nil {
				t.Fatal(err)
			}
			m1, err := core.NewRestored(p, cfg, ck.State, oracle)
			if err != nil {
				t.Fatal(err)
			}
			iv1, err := DriveInterval(context.Background(), m1, ck, warm)
			if err != nil {
				t.Fatal(err)
			}
			oracle2, err := IntervalOracle(p, dec, warm+measured)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := core.NewRestored(p, cfg, dec.State, oracle2)
			if err != nil {
				t.Fatal(err)
			}
			iv2, err := DriveInterval(context.Background(), m2, dec, warm)
			if err != nil {
				t.Fatal(err)
			}
			if iv1.Stats != iv2.Stats {
				t.Fatalf("decoded checkpoint diverges:\n got %+v\nwant %+v", iv2.Stats, iv1.Stats)
			}
		})
	}
}

// TestCIMetricsNameReportFields requires every confidence-interval name to
// be the JSON tag of a float64 field of core.Report, and its accessor to
// read that field: decoding 0.5 under the name fails for an unknown tag and
// for a field of any other type.
func TestCIMetricsNameReportFields(t *testing.T) {
	for _, met := range ciMetrics {
		dec := json.NewDecoder(strings.NewReader(fmt.Sprintf(`{%q: 0.5}`, met.name)))
		dec.DisallowUnknownFields()
		var r core.Report
		if err := dec.Decode(&r); err != nil {
			t.Errorf("CI %q is not a float64 field of core.Report: %v", met.name, err)
			continue
		}
		if got := met.f(r); got != 0.5 {
			t.Errorf("CI %q reads %v, not the Report field it names", met.name, got)
		}
	}
}

// TestPlanValidate covers plan normalization and rejection.
func TestPlanValidate(t *testing.T) {
	if err := (Plan{}).Validate(); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if err := (Plan{Interval: 100, Every: 4, Warmup: 500}).Validate(); err == nil {
		t.Fatal("warmup beyond the stride must be rejected")
	}
	p := (Plan{Interval: 100}).Normalize()
	if p.Every != 1 {
		t.Fatalf("Every normalized to %d", p.Every)
	}
	if (Plan{Interval: 5, Every: 2, Warmup: 1}).Key() != "i5.e2.w1" {
		t.Fatalf("Key = %q", (Plan{Interval: 5, Every: 2, Warmup: 1}).Key())
	}
}
