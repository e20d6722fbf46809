package core

// Stats aggregates everything the paper's tables and figures need from one
// simulation run. Rates are computed by the accessor methods so the raw
// counters stay inspectable.
type Stats struct {
	Cycles    uint64
	Committed uint64 // retired instructions
	Fetched   uint64
	Executed  uint64 // executions started (re-executions count again)

	// Branch prediction (committed conditional branches).
	CondBranches   uint64
	CondMispredict uint64 // final direction differed from the fetch prediction
	Returns        uint64
	ReturnsCorrect uint64

	// Squashes.
	Squashes         uint64 // control-flow squash events (any redirect)
	SpuriousSquashes uint64 // redirects toward a direction that was not the final one
	ExecSquashed     uint64 // executed instructions discarded by squashes

	// Branch resolution latency (committed cond branches + indirect jumps):
	// cycles from decode to final resolution.
	BrResolveLatSum uint64
	BrResolveLatN   uint64

	// Resource contention (§4.2.3): requests for FUs / cache ports / result
	// buses by ready instructions, and the denials among them.
	ResourceRequests uint64
	ResourceDenials  uint64

	// Executions per committed instruction (Table 6): index i counts
	// instructions executed exactly i+1 times; index 3 is "4 or more".
	ExecTimes [4]uint64

	// Value prediction (committed instructions).
	VPResultPredicted uint64 // had a confident result prediction
	VPResultCorrect   uint64
	VPAddrPredicted   uint64 // memory ops with a confident address prediction
	VPAddrCorrect     uint64

	// Instruction reuse (committed instructions).
	ReusedResults uint64 // full reuse
	ReusedAddrs   uint64 // memory ops whose effective address came from the RB
	MemOps        uint64 // committed loads+stores
	Recovered     uint64 // reuse hits on squashed (wrong-path) work

	// Memory system.
	ICacheAccesses uint64
	ICacheMisses   uint64
	DCacheAccesses uint64
	DCacheMisses   uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// BranchPredRate returns the direction prediction accuracy for committed
// conditional branches, in percent.
func (s Stats) BranchPredRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return 100 * float64(s.CondBranches-s.CondMispredict) / float64(s.CondBranches)
}

// ReturnPredRate returns the return-target prediction accuracy in percent.
func (s Stats) ReturnPredRate() float64 {
	if s.Returns == 0 {
		return 0
	}
	return 100 * float64(s.ReturnsCorrect) / float64(s.Returns)
}

// Contention returns denials per request (the §4.2.3 metric).
func (s Stats) Contention() float64 {
	if s.ResourceRequests == 0 {
		return 0
	}
	return float64(s.ResourceDenials) / float64(s.ResourceRequests)
}

// MeanBrResolveLat returns the average branch resolution latency in cycles.
func (s Stats) MeanBrResolveLat() float64 {
	if s.BrResolveLatN == 0 {
		return 0
	}
	return float64(s.BrResolveLatSum) / float64(s.BrResolveLatN)
}

// ReuseResultRate returns committed fully-reused instructions as a percent
// of all committed instructions.
func (s Stats) ReuseResultRate() float64 {
	if s.Committed == 0 {
		return 0
	}
	return 100 * float64(s.ReusedResults) / float64(s.Committed)
}

// ReuseAddrRate returns committed address-reused memory ops as a percent of
// committed memory ops.
func (s Stats) ReuseAddrRate() float64 {
	if s.MemOps == 0 {
		return 0
	}
	return 100 * float64(s.ReusedAddrs) / float64(s.MemOps)
}

// VPResultRates returns (correct%, mispredict%) over committed instructions.
func (s Stats) VPResultRates() (pred, mispred float64) {
	if s.Committed == 0 {
		return 0, 0
	}
	c := float64(s.Committed)
	return 100 * float64(s.VPResultCorrect) / c,
		100 * float64(s.VPResultPredicted-s.VPResultCorrect) / c
}

// VPAddrRates returns (correct%, mispredict%) over committed memory ops.
func (s Stats) VPAddrRates() (pred, mispred float64) {
	if s.MemOps == 0 {
		return 0, 0
	}
	m := float64(s.MemOps)
	return 100 * float64(s.VPAddrCorrect) / m,
		100 * float64(s.VPAddrPredicted-s.VPAddrCorrect) / m
}

// ExecSquashedPct returns executed-and-squashed instructions as a percent
// of all executions (Table 5, column 2).
func (s Stats) ExecSquashedPct() float64 {
	if s.Executed == 0 {
		return 0
	}
	return 100 * float64(s.ExecSquashed) / float64(s.Executed)
}

// RecoveredPct returns squashed executions later recovered through the RB
// as a percent of executed-and-squashed instructions (Table 5, column 3).
func (s Stats) RecoveredPct() float64 {
	if s.ExecSquashed == 0 {
		return 0
	}
	return 100 * float64(s.Recovered) / float64(s.ExecSquashed)
}

// ExecTimesPct returns the Table 6 distribution: percent of committed
// instructions executed exactly 1, 2, and 3-or-more times.
func (s Stats) ExecTimesPct() [3]float64 {
	var out [3]float64
	if s.Committed == 0 {
		return out
	}
	c := float64(s.Committed)
	out[0] = 100 * float64(s.ExecTimes[0]) / c
	out[1] = 100 * float64(s.ExecTimes[1]) / c
	out[2] = 100 * float64(s.ExecTimes[2]+s.ExecTimes[3]) / c
	return out
}

// Report is the derived view of one run's Stats that every result surface
// publishes: the library's vpir.Result, the HTTP API's "stats" object and
// the golden corpus all embed it, so a metric defined here reaches each of
// them. The JSON tags are the wire names, in wire order.
type Report struct {
	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	Executed  uint64  `json:"executed"`
	IPC       float64 `json:"ipc"`

	BranchPredRate float64 `json:"branch_pred_rate"` // %
	ReturnPredRate float64 `json:"return_pred_rate"` // %

	Squashes         uint64 `json:"squashes"`
	SpuriousSquashes uint64 `json:"spurious_squashes"`

	// IR metrics (% of committed instructions / memory ops).
	ReuseResultRate float64 `json:"reuse_result_rate"`
	ReuseAddrRate   float64 `json:"reuse_addr_rate"`
	ExecSquashedPct float64 `json:"exec_squashed_pct"`
	RecoveredPct    float64 `json:"recovered_pct"`

	// VP metrics (% of committed instructions / memory ops).
	VPResultPred    float64    `json:"vp_result_pred"`
	VPResultMispred float64    `json:"vp_result_mispred"`
	VPAddrPred      float64    `json:"vp_addr_pred"`
	VPAddrMispred   float64    `json:"vp_addr_mispred"`
	ExecTimesPct    [3]float64 `json:"exec_times_pct"` // Table 6: executed once / twice / 3+

	Contention               float64 `json:"contention"`
	MeanBranchResolveLatency float64 `json:"mean_branch_resolve_latency"` // cycles
}

// Report derives the published metrics from the counters.
func (s Stats) Report() Report {
	rp, rm := s.VPResultRates()
	ap, am := s.VPAddrRates()
	return Report{
		Cycles:                   s.Cycles,
		Committed:                s.Committed,
		Executed:                 s.Executed,
		IPC:                      s.IPC(),
		BranchPredRate:           s.BranchPredRate(),
		ReturnPredRate:           s.ReturnPredRate(),
		Squashes:                 s.Squashes,
		SpuriousSquashes:         s.SpuriousSquashes,
		ReuseResultRate:          s.ReuseResultRate(),
		ReuseAddrRate:            s.ReuseAddrRate(),
		ExecSquashedPct:          s.ExecSquashedPct(),
		RecoveredPct:             s.RecoveredPct(),
		VPResultPred:             rp,
		VPResultMispred:          rm,
		VPAddrPred:               ap,
		VPAddrMispred:            am,
		ExecTimesPct:             s.ExecTimesPct(),
		Contention:               s.Contention(),
		MeanBranchResolveLatency: s.MeanBrResolveLat(),
	}
}
