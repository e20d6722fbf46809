package server

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/sample"
)

// SampleBlock is the wire form of a checkpointed-sampling plan (see
// docs/sampling.md). On /v1/run and /v1/sweep it samples the whole program.
type SampleBlock struct {
	// Interval is the measured interval length in dynamic instructions
	// (required, > 0).
	Interval uint64 `json:"interval"`
	// Every measures one interval in every Every (0 or 1 = all, k ≈ 1/k
	// coverage).
	Every uint64 `json:"every,omitempty"`
	// Warmup is the detailed-warmup instruction count before each measured
	// interval; warmup statistics are discarded.
	Warmup uint64 `json:"warmup,omitempty"`
}

// Plan converts the block to the internal sampling plan.
func (b *SampleBlock) Plan() sample.Plan {
	return sample.Plan{Interval: b.Interval, Every: b.Every, Warmup: b.Warmup}.Normalize()
}

// Validate rejects malformed blocks with messages precise enough for a
// structured 400.
func (b *SampleBlock) Validate() error {
	if b.Interval == 0 {
		return fmt.Errorf("sample.interval must be a positive instruction count")
	}
	return b.Plan().Validate()
}

// SampleResult is the wire form of a stitched sampling summary.
type SampleResult = sample.Extent
