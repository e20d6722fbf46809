// Package server turns the simulator into a network service: an HTTP JSON
// API that runs simulations on a bounded worker pool with per-worker
// machine reuse, coalesces duplicate in-flight requests, serves repeats
// from a size-bounded LRU result cache, and decomposes sweep requests into
// cells batched through the harness's parallel sweep engine. See
// docs/server.md for the API and operational contract.
package server

import (
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/technique"
)

// SimOptions is the wire form of one simulation configuration: a
// technique name, the technique knobs and the watchdog override. The knobs
// are embedded, so their JSON fields sit beside "technique" exactly as if
// they were declared here. The zero value is the base machine.
type SimOptions struct {
	// Technique is any registered technique name ("base" when empty):
	// "base", "vp", "ir", "hybrid", "hybrid_conf", "vp_stride",
	// "vp_2delta", "vp_fcm", … — see internal/technique.Names.
	Technique string `json:"technique,omitempty"`
	technique.Knobs
	// WatchdogCycles overrides the livelock watchdog (0 keeps the
	// default, negative disables).
	WatchdogCycles int64 `json:"watchdog_cycles,omitempty"`
}

// Config maps the wire options onto a machine configuration. The mapping
// is the single source of truth for the string spelling of every knob —
// the public vpir.Options delegates here so the library and the wire API
// can never drift apart.
func (o SimOptions) Config() (core.Config, error) {
	cfg, err := technique.Resolve(o.Technique, o.Knobs)
	if err != nil {
		return cfg, err
	}
	if o.WatchdogCycles > 0 {
		cfg.Watchdog = uint64(o.WatchdogCycles)
	} else if o.WatchdogCycles < 0 {
		cfg.Watchdog = 0
	}
	return cfg, nil
}

// RunRequest is the body of POST /v1/run: one benchmark under one
// configuration.
type RunRequest struct {
	Bench    string     `json:"bench"`
	Scale    int        `json:"scale,omitempty"`
	MaxInsts uint64     `json:"max_insts,omitempty"`
	Options  SimOptions `json:"options"`
	// Sample switches the run to checkpointed sampled simulation; the
	// response then carries a SampleResult. Malformed blocks are rejected
	// with a structured 400.
	Sample *SampleBlock `json:"sample,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the cross product of
// benchmarks and configurations. The response is NDJSON, one SweepLine per
// cell in deterministic bench-major order, streamed as cells complete, with
// '#'-prefixed heartbeat comment lines interleaved while cells compute.
type SweepRequest struct {
	Benches  []string     `json:"benches,omitempty"`
	Options  []SimOptions `json:"options,omitempty"`
	Scale    int          `json:"scale,omitempty"`
	MaxInsts uint64       `json:"max_insts,omitempty"`
	// Sample samples every cell of the sweep under this plan.
	Sample *SampleBlock `json:"sample,omitempty"`
}

// SimStats is the wire form of one simulation's results: the
// configuration's canonical name plus the derived report the library's
// Result embeds too.
type SimStats struct {
	Config string `json:"config"`
	core.Report
}

// statsFrom renders one simulation's counters in wire form.
func statsFrom(cfg core.Config, s core.Stats) SimStats {
	return SimStats{Config: cfg.Name(), Report: s.Report()}
}

// RunResponse is the body of a successful POST /v1/run: the simulation
// stats plus the program's architectural output. Identical requests get
// byte-identical responses — the marshaled body is what the result cache
// stores.
type RunResponse struct {
	Bench    string   `json:"bench"`
	Scale    int      `json:"scale"`
	MaxInsts uint64   `json:"max_insts,omitempty"`
	Stats    SimStats `json:"stats"`
	Output   string   `json:"output"`
	ExitCode int      `json:"exit_code"`
	// Sample is the stitched sampling summary of a sampled run; absent
	// otherwise, so non-sampled responses are byte-identical to before.
	Sample *SampleResult `json:"sample,omitempty"`
}

// SweepLine is one NDJSON line of a POST /v1/sweep response: either a
// cell result (Index/Bench/Config/Stats set, Error empty), a cell failure
// (Error set), or — on the final line — the Done summary. Per-cell errors
// never abort the sweep; the Done line totals them, mirroring the
// harness's errors.Join partial-result contract.
type SweepLine struct {
	Index  int       `json:"index"`
	Bench  string    `json:"bench,omitempty"`
	Config string    `json:"config,omitempty"`
	Stats  *SimStats `json:"stats,omitempty"`
	Error  string    `json:"error,omitempty"`

	// Sample is the stitched summary of a sampled cell.
	Sample *SampleResult `json:"sample,omitempty"`
	// Attempts audits retries on sampled and failed cells: 0 = served from
	// the runner's cache, 1 = first-try success, n > 1 = n−1 transient
	// failures were retried before this result. Plain successful cells omit
	// it so their lines keep the pre-sampling byte shape.
	Attempts int `json:"attempts,omitempty"`

	Done   bool `json:"done,omitempty"`
	Cells  int  `json:"cells,omitempty"`
	Failed int  `json:"failed,omitempty"`
}

// BenchmarkEntry is one element of the GET /v1/benchmarks response.
type BenchmarkEntry struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// ErrorResponse is the body of every non-2xx JSON response. RequestID is
// present when the request passed through WithRequestID, so a client error
// report can be joined against the server's access log.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}
