package server

import (
	"context"
	"fmt"
	"net/http"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/obs"
	"github.com/vpir-sim/vpir/internal/workload"
)

// Trace capture bounds. The window is a pipetrace ring (last N dynamic
// instructions), events an event-log ring, and the interval the sampler
// period — all three bound memory regardless of run length, so /v1/trace
// inherits /v1/run's resource envelope (plus these caps) rather than
// inventing a new one.
const (
	// DefaultTraceWindow is the pipetrace ring size when the request does
	// not ask for one.
	DefaultTraceWindow = 256
	// MaxTraceWindow caps the pipetrace ring a request may ask for.
	MaxTraceWindow = 4096
	// DefaultTraceEvents is the event-ring capacity when the request does
	// not ask for one.
	DefaultTraceEvents = 2048
	// MaxTraceEvents caps the event ring a request may ask for.
	MaxTraceEvents = 16384
	// MinTraceInterval floors the sampling period so a long run cannot be
	// asked to sample (and ship) every cycle.
	MinTraceInterval = 1000
)

// TraceRequest is the body of POST /v1/trace: one benchmark under one
// configuration, run with the full observability capture attached — a
// pipetrace ring of the last Window instructions, a structured event ring,
// and the interval sampler. Zero values get the defaults above; Scale and
// MaxInsts are clamped exactly like /v1/run.
type TraceRequest struct {
	Bench    string     `json:"bench"`
	Scale    int        `json:"scale,omitempty"`
	MaxInsts uint64     `json:"max_insts,omitempty"`
	Options  SimOptions `json:"options"`
	// Window is the pipetrace ring size: the response carries the *last*
	// Window dynamic instructions (0 = 256, capped at 4096).
	Window int `json:"window,omitempty"`
	// Interval is the sampler period in cycles (0 = the core default,
	// floored at 1000).
	Interval uint64 `json:"interval,omitempty"`
	// Events is the event-ring capacity (0 = 2048, capped at 16384).
	Events int `json:"events,omitempty"`
}

// TraceWindow is the pipetrace portion of a TraceResponse: the last Max
// dynamic instructions, oldest-first, plus how many older records the
// ring overwrote to keep them.
type TraceWindow struct {
	Max       int                  `json:"max"`
	Overwrote uint64               `json:"overwrote,omitempty"`
	Insts     []core.PipeEventJSON `json:"insts"`
}

// TraceSeries is the interval-sampler portion of a TraceResponse.
type TraceSeries struct {
	Interval uint64      `json:"interval"`
	Fields   []string    `json:"fields"`
	Rows     [][]float64 `json:"rows"`
}

// TraceResponse is the body of a successful POST /v1/trace: the same
// stats/output as /v1/run plus the three observability payloads the
// dashboard renders. Identical requests get byte-identical responses —
// the marshaled body is what the result cache stores.
type TraceResponse struct {
	Bench    string   `json:"bench"`
	Scale    int      `json:"scale"`
	MaxInsts uint64   `json:"max_insts,omitempty"`
	Stats    SimStats `json:"stats"`
	Output   string   `json:"output"`
	ExitCode int      `json:"exit_code"`
	// CyclesSkipped is how many of the run's cycles the quiescence-aware
	// skipper fast-forwarded (simulator performance only; the stats above
	// are identical with skipping off).
	CyclesSkipped uint64           `json:"cycles_skipped"`
	Window        TraceWindow      `json:"window"`
	Events        obs.EventLogJSON `json:"events"`
	Series        TraceSeries      `json:"series"`
}

// clampTrace applies the capture bounds to a request's knobs.
func clampTrace(req TraceRequest) traceParams {
	tp := traceParams{window: req.Window, interval: req.Interval, events: req.Events}
	if tp.window <= 0 {
		tp.window = DefaultTraceWindow
	}
	if tp.window > MaxTraceWindow {
		tp.window = MaxTraceWindow
	}
	if tp.interval == 0 {
		tp.interval = core.DefaultMetricsInterval
	}
	if tp.interval < MinTraceInterval {
		tp.interval = MinTraceInterval
	}
	if tp.events <= 0 {
		tp.events = DefaultTraceEvents
	}
	if tp.events > MaxTraceEvents {
		tp.events = MaxTraceEvents
	}
	return tp
}

// traceKey is the full identity of one trace result: the run identity
// (runKey) extended with the clamped capture bounds, since a different
// window or sampling period is a different payload.
func traceKey(run string, tp traceParams) string {
	return fmt.Sprintf("trace|%s|%d|%d|%d", run, tp.window, tp.interval, tp.events)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.metrics.Inc("server.rejected")
		writeDraining(w)
		return
	}
	defer s.end()
	s.metrics.Inc("server.trace.requests")

	var req TraceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, err := workload.Get(req.Bench); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := req.Options.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	scale, maxInsts := s.clamp(req.Scale, req.MaxInsts)
	tp := clampTrace(req)
	key := traceKey(runKey(req.Bench, scale, maxInsts, cfg, nil), tp)
	s.serveCached(w, r, key, "server.trace.errors", func(ctx context.Context) (any, error) {
		res := s.pool.trace(ctx, req.Bench, scale, maxInsts, cfg, tp)
		if res.err != nil {
			return nil, res.err
		}
		series := res.obs.Series().JSON()
		return TraceResponse{
			Bench:         req.Bench,
			Scale:         scale,
			MaxInsts:      maxInsts,
			Stats:         statsFrom(cfg, res.stats),
			Output:        res.output,
			ExitCode:      res.exitCode,
			CyclesSkipped: res.skipped,
			Window: TraceWindow{
				Max:       tp.window,
				Overwrote: res.tracer.Overwrote(),
				Insts:     res.tracer.JSON(),
			},
			Events: res.obs.Events().JSON(),
			Series: TraceSeries{
				Interval: res.obs.Interval(),
				Fields:   series.Fields,
				Rows:     series.Rows,
			},
		}, nil
	})
}
