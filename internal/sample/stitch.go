package sample

import (
	"context"
	"fmt"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/stats"
)

// DriveInterval runs a machine that ResetTo/NewRestored placed on a
// checkpoint: the detailed-warmup region is driven cycle by cycle so the
// warmup boundary lands on the first cycle with warm instructions committed
// (deterministic, machine-independent), its statistics snapshot is taken,
// the measured region runs to the oracle's end, and the warmup counters are
// subtracted away. The returned IntervalResult covers exactly the measured
// region.
func DriveInterval(ctx context.Context, m *core.Machine, ck *Checkpoint, warm uint64) (IntervalResult, error) {
	iv := IntervalResult{Index: ck.Index, Start: ck.Start}
	const slice = 4096 // cycles between context-deadline checks
	for warm > 0 && !m.Halted() && m.Stats().Committed < warm {
		if err := ctx.Err(); err != nil {
			return iv, fmt.Errorf("sample: interval %d: %w", ck.Index, err)
		}
		if err := m.Run(1); err != nil {
			return iv, err
		}
	}
	base := m.Stats()
	iv.Warm = base.Committed
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return iv, fmt.Errorf("sample: interval %d: %w", ck.Index, err)
		}
		if err := m.Run(slice); err != nil {
			return iv, err
		}
	}
	iv.Stats = m.Stats().Minus(base)
	iv.Insts = iv.Stats.Committed
	iv.Output = m.Output()
	iv.ExitCode = m.ExitCode()
	// The machine halts either because the interval's oracle ran out or
	// because the program genuinely ended inside the interval; the oracle
	// records which.
	iv.Halted = m.Oracle().Halted
	return iv, nil
}

// ciMetrics are the core.Report metrics, named by their JSON tags, that get
// confidence intervals in the stitched summary.
var ciMetrics = []struct {
	name string
	f    func(core.Report) float64
}{
	{"ipc", func(r core.Report) float64 { return r.IPC }},
	{"branch_pred_rate", func(r core.Report) float64 { return r.BranchPredRate }},
	{"reuse_result_rate", func(r core.Report) float64 { return r.ReuseResultRate }},
	{"vp_result_pred", func(r core.Report) float64 { return r.VPResultPred }},
}

// Stitch combines the per-interval measurements into a whole-program
// estimate. Results must arrive complete and in index order (the harness's
// deterministic cell-ordered merge provides exactly that); the stitch output
// is then independent of how the intervals were scheduled.
//
// With complete coverage the counters are summed exactly; with sparse
// coverage every counter is ratio-scaled by committed instructions
// (estimate = Σ sampled · TotalInsts / Σ sampled committed), the standard
// per-instruction ratio estimator. Per-metric 95% confidence intervals are
// computed across the per-interval values of each derived metric.
func Stitch(ff *FFResult, ivs []IntervalResult) (*Summary, error) {
	if len(ivs) != len(ff.Checkpoints) {
		return nil, fmt.Errorf("sample: stitch got %d interval results, plan has %d", len(ivs), len(ff.Checkpoints))
	}
	plan := ff.Plan.Normalize()
	sum := &Summary{Plan: plan, Extent: Extent{Intervals: len(ivs), TotalInsts: ff.TotalInsts}}
	var agg core.Stats
	for i := range ivs {
		iv := &ivs[i]
		if iv.Index != i {
			return nil, fmt.Errorf("sample: stitch results out of order: position %d holds interval %d", i, iv.Index)
		}
		ck, warm, measured, err := ff.IntervalSpec(i)
		if err != nil {
			return nil, err
		}
		// The interval's oracle covers warm+measured instructions and the
		// machine commits all of them (unless the program halted inside the
		// interval, in which case it commits fewer). The warm/measured split
		// lands on a cycle boundary, so Warm may exceed the plan's warmup by a
		// commit-width's worth — the sum is what must be exact.
		if total := iv.Warm + iv.Insts; total != warm+measured && !(iv.Halted && total < warm+measured) {
			return nil, fmt.Errorf("sample: interval %d committed %d warm + %d measured instructions, oracle had %d (checkpoint at %d)",
				i, iv.Warm, iv.Insts, warm+measured, ck.At)
		}
		if iv.Warm < warm && !iv.Halted {
			return nil, fmt.Errorf("sample: interval %d warmup stopped at %d of %d instructions", i, iv.Warm, warm)
		}
		agg = agg.Plus(iv.Stats)
		sum.SampledInsts += iv.Insts
	}
	if sum.SampledInsts == 0 {
		return nil, fmt.Errorf("sample: no instructions measured")
	}
	sum.Coverage = float64(sum.SampledInsts) / float64(ff.TotalInsts)

	if sum.SampledInsts >= ff.TotalInsts {
		// Complete coverage: the aggregate is exact, no estimation involved.
		sum.Stats = agg
		sum.Exact = true
	} else {
		sum.Stats = agg.Scale(float64(ff.TotalInsts) / float64(sum.SampledInsts))
	}

	for _, met := range ciMetrics {
		xs := make([]float64, len(ivs))
		for i := range ivs {
			xs[i] = met.f(ivs[i].Stats.Report())
		}
		mean, half := stats.MeanCI(xs)
		sum.CIs = append(sum.CIs, MetricCI{Name: met.name, Mean: mean, Half: half})
	}

	// Architectural results: the exit code comes from the functional run
	// (always authoritative); the output reassembles only when the plan
	// measured the program contiguously with no duplicated warmup regions.
	sum.ExitCode = ff.ExitCode
	sum.Halted = ff.Halted
	if plan.Every == 1 && plan.Warmup == 0 {
		out := ""
		for i := range ivs {
			out += ivs[i].Output
		}
		sum.Output = out
	}
	return sum, nil
}
