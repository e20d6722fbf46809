// Package sample implements checkpointed sampled simulation: the program is
// executed once at functional speed with the branch predictor, caches, value
// prediction tables and reuse buffer functionally warmed along the way;
// architectural checkpoints (register file, PC, dirty memory pages, warm
// predictor state) are captured at interval boundaries; each sampled
// interval is then simulated in detail on a timing machine restored from its
// checkpoint; and the per-interval statistics are stitched into
// whole-program estimates with per-metric confidence intervals.
//
// Checkpoints are the unit of parallelism: intervals are independent once
// their checkpoints exist, so they fan out across the harness worker pool
// as sweep cells (see internal/harness). Determinism is preserved end to end — the same plan over
// the same program yields bit-identical checkpoints, interval statistics and
// stitched totals regardless of execution order, and a plan covering the
// whole program in one interval reproduces a non-sampled run exactly.
package sample

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/core"
)

// Plan describes a sampling regime in dynamic instructions.
type Plan struct {
	// Interval is the length of each measured interval (> 0).
	Interval uint64
	// Every samples one interval out of this many (1 = 100% coverage;
	// 0 normalizes to 1). With Every = k, interval j is measured iff
	// j ≡ 0 (mod k), so coverage ≈ 1/k.
	Every uint64
	// Warmup is the number of detailed-warmup instructions simulated before
	// each measured interval; their statistics are discarded by counter
	// subtraction (core.Stats.Minus). The checkpoint for interval k starting
	// at instruction S_k is taken at max(0, S_k − Warmup). Functional
	// warming during fast-forward is always on regardless; Warmup buys
	// additional pipeline/queue warmth that functional warming cannot model.
	Warmup uint64
}

// Normalize fills defaulted fields (Every 0 → 1).
func (p Plan) Normalize() Plan {
	if p.Every == 0 {
		p.Every = 1
	}
	return p
}

// Validate rejects unusable plans.
func (p Plan) Validate() error {
	if p.Interval == 0 {
		return fmt.Errorf("sample: interval must be positive")
	}
	if p.Warmup >= p.Interval*p.Every && p.Every > 1 {
		// Overlapping warmup in a sparse plan would re-measure earlier
		// intervals' instructions as warmup, which is fine; warmup larger
		// than the whole stride is almost certainly a unit mistake.
		return fmt.Errorf("sample: warmup %d exceeds the sampling stride %d", p.Warmup, p.Interval*p.Every)
	}
	return nil
}

// Key is the plan's cache-key fragment; harness and server result caches
// append it so sampled and non-sampled results can never alias.
func (p Plan) Key() string {
	p = p.Normalize()
	return fmt.Sprintf("i%d.e%d.w%d", p.Interval, p.Every, p.Warmup)
}

// Checkpoint is one restorable point of the fast-forward run.
type Checkpoint struct {
	// Index is the checkpoint's position in FFResult.Checkpoints.
	Index int
	// Start is the dynamic instruction number of the first measured
	// instruction of the interval (S_k = k·Every·Interval).
	Start uint64
	// At is the instruction count at which the state was captured:
	// max(0, Start − Warmup). The Start−At instructions replayed before the
	// measured region are the detailed warmup.
	At uint64
	// State is everything restored onto the timing machine.
	State *core.RestoreState
}

// FFResult is the outcome of one fast-forward pass: the checkpoints of every
// sampled interval plus the program-level totals the stitcher scales to.
type FFResult struct {
	Plan        Plan
	TotalInsts  uint64 // dynamic instructions to halt (or the instruction cap)
	Halted      bool   // false when the instruction cap cut the run
	ExitCode    int
	Output      string // architectural output of the full functional run
	Checkpoints []Checkpoint
}

// IntervalSpec returns checkpoint k with its warmup and measured lengths in
// instructions; the interval oracle must cover warm+measured instructions
// from Checkpoint.At.
func (f *FFResult) IntervalSpec(k int) (ck *Checkpoint, warm, measured uint64, err error) {
	if k < 0 || k >= len(f.Checkpoints) {
		return nil, 0, 0, fmt.Errorf("sample: interval index %d out of range (plan has %d)", k, len(f.Checkpoints))
	}
	ck = &f.Checkpoints[k]
	warm = ck.Start - ck.At
	measured = f.Plan.Normalize().Interval
	if remaining := f.TotalInsts - ck.Start; measured > remaining {
		measured = remaining
	}
	return ck, warm, measured, nil
}

// IntervalResult is one interval's detailed measurement: the statistics of
// the measured region (detailed warmup already subtracted), and the
// architectural output/exit of the interval's machine.
type IntervalResult struct {
	Index int
	Start uint64
	// Insts is the measured committed instruction count (== Stats.Committed).
	Insts uint64
	// Warm is the committed instruction count of the discarded detailed-warmup
	// region. The machine commits whole cycles, so Warm may overshoot the
	// plan's Warmup by up to a commit-width's worth of instructions; the
	// stitcher checks the exact invariant Warm + Insts == oracle length
	// instead of an instruction-granular boundary. Deterministic for a given
	// (program, cfg, plan).
	Warm uint64
	// Stats covers exactly the measured region.
	Stats core.Stats
	// Output is what the interval's machine printed, including during
	// detailed warmup; it reassembles into the full program output only for
	// contiguous zero-warmup plans.
	Output   string
	ExitCode int
	Halted   bool
}

// MetricCI is a per-metric confidence interval over the sampled intervals.
type MetricCI struct {
	Name string
	Mean float64
	// Half is the half-width of the two-sided 95% confidence interval
	// (Student t over the per-interval metric values); 0 with one interval.
	Half float64
}

// Summary is the stitched whole-program estimate.
type Summary struct {
	Plan Plan
	// Stats is the whole-program estimate: exact sums when coverage is
	// complete, ratio-scaled by committed instructions otherwise.
	Stats core.Stats
	// Exact reports that Stats is an exact aggregate (every committed
	// instruction was measured), in which case a single-interval plan is
	// bit-identical to a non-sampled run.
	Exact        bool
	Intervals    int
	TotalInsts   uint64
	SampledInsts uint64
	Coverage     float64 // SampledInsts / TotalInsts
	CIs          []MetricCI

	// Output and ExitCode are the program's architectural results; Output is
	// only available ("" otherwise) when the plan measures the program
	// contiguously from instruction 0 with zero detailed warmup, so the
	// per-interval outputs concatenate without duplication.
	Output   string
	ExitCode int
	Halted   bool
}
