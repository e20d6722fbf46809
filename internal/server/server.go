package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/obs"
	"github.com/vpir-sim/vpir/internal/workload"
)

// Defaults for the Config zero value.
const (
	DefaultCacheEntries  = 1024
	DefaultTimeout       = 2 * time.Minute
	DefaultMaxScale      = 16
	DefaultMaxSweepCells = 256
	DefaultHeartbeat     = 10 * time.Second
	maxRequestBody       = 1 << 20
)

// HeartbeatLine is the NDJSON comment line periodically written into a
// sweep stream while a cell is still computing, so idle proxies and load
// balancers don't sever long-running sweeps. Comment lines start with '#';
// NDJSON consumers must skip them.
const HeartbeatLine = "# heartbeat\n"

// retryAfterSeconds is the Retry-After hint on 503 responses while
// draining: long enough for a load balancer to fail over, short enough
// that a restarted instance picks traffic back up promptly.
const retryAfterSeconds = "5"

// Config tunes the simulation server. The zero value gets sensible
// defaults (GOMAXPROCS workers, a 1024-entry cache, a 2-minute
// per-simulation wall-clock bound).
type Config struct {
	// Workers is the run pool size (0 = GOMAXPROCS). The pool bounds how
	// many simulations execute concurrently regardless of request volume.
	Workers int
	// CacheEntries bounds the LRU result cache (0 = the 1024 default;
	// negative disables caching).
	CacheEntries int
	// Timeout bounds each simulation's wall-clock time (0 = the 2-minute
	// default; negative disables the bound).
	Timeout time.Duration
	// MaxInsts caps the per-run dynamic instruction count a request may
	// ask for; requests above it (or asking for unbounded runs) are
	// clamped, and the effective value is echoed in the response.
	// 0 = no cap.
	MaxInsts uint64
	// MaxScale caps the workload scale factor a request may ask for
	// (0 = the default 16).
	MaxScale int
	// SweepParallelism is the harness worker count for each sweep request
	// (0 = GOMAXPROCS).
	SweepParallelism int
	// MaxSweepCells bounds benches × configs per sweep request
	// (0 = the default 256).
	MaxSweepCells int
	// Heartbeat is the sweep-stream heartbeat interval (0 = the 10 s
	// default; negative disables heartbeats).
	Heartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxScale <= 0 {
		c.MaxScale = DefaultMaxScale
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = DefaultMaxSweepCells
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	return c
}

// Server is the simulation service: a bounded run pool, a singleflight
// layer that coalesces duplicate in-flight requests, a size-bounded LRU
// result cache, and the HTTP handlers that expose them. Create one with
// New, mount Handler, and Drain it on shutdown.
type Server struct {
	cfg     Config
	pool    *pool
	metrics *obs.Shared
	flight  flightGroup

	mu    sync.Mutex // guards cache
	cache *lruCache

	stateMu   sync.Mutex // guards draining + inflight admission
	draining  bool
	inflight  sync.WaitGroup
	poolClose sync.Once
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pool:    newPool(cfg.Workers),
		metrics: obs.NewShared(),
		cache:   newLRU(cfg.CacheEntries),
	}
}

// Metrics exposes the server's instrument registry (requests, cache
// hit/miss/eviction counters, the in-flight gauge); /metrics renders it in
// Prometheus text format.
func (s *Server) Metrics() *obs.Shared { return s.metrics }

// Handler returns the API mux:
//
//	POST /v1/run        one simulation (cached, coalesced)
//	POST /v1/trace      one simulation with pipetrace + events + series
//	POST /v1/sweep      benches × configs, streamed as NDJSON
//	GET  /v1/benchmarks the built-in workloads
//	GET  /v1/ui/        the embedded analysis dashboard
//	GET  /healthz       "ok", or 503 "draining" during shutdown
//	GET  /metrics       Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.recovered(s.handleRun))
	mux.HandleFunc("POST /v1/trace", s.recovered(s.handleTrace))
	mux.HandleFunc("POST /v1/sweep", s.recovered(s.handleSweep))
	mux.HandleFunc("GET /v1/benchmarks", s.recovered(s.handleBenchmarks))
	mux.Handle("GET /v1/ui/", uiHandler())
	mux.HandleFunc("GET /v1/ui", redirectUI)
	mux.HandleFunc("GET /{$}", redirectUI)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain moves the server to its terminal state: new run/sweep requests are
// rejected with 503, in-flight ones finish, then the worker pool is torn
// down. It returns ctx's error if the deadline passes while requests are
// still in flight (the pool is then left running; Drain may be retried).
// Draining is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	s.draining = true
	s.stateMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.poolClose.Do(s.pool.close)
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// begin admits one request unless the server is draining; admission and
// the draining flag share a mutex so Drain's WaitGroup.Wait can never miss
// a request it should have waited for.
func (s *Server) begin() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) end() { s.inflight.Done() }

// recovered wraps a handler with panic-to-500 conversion so a bug in one
// request can never take the whole service down.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Inc("server.panics")
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		h(w, r)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// WithRequestID stamps the header before handlers run; echoing it in the
	// body lets a client error report be joined against the access log.
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, RequestID: w.Header().Get(RequestIDHeader)})
}

// writeDraining is the 503 rejection while draining; Retry-After tells
// well-behaved clients and load balancers when to try again instead of
// abandoning the server forever.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// decodeBody decodes a JSON request body into v, answering a structured 400
// and returning false when the body is malformed, oversized, or names a
// field v does not have — a client still speaking a retired request form
// learns so instead of getting a different request served.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// clamp applies the server's scale and instruction-count bounds to a
// request, returning the effective values (which also feed the cache key,
// so a clamped request and an explicit request for the effective values
// share one cache entry).
func (s *Server) clamp(scale int, maxInsts uint64) (int, uint64) {
	if scale < 1 {
		scale = 1
	}
	if scale > s.cfg.MaxScale {
		scale = s.cfg.MaxScale
	}
	if s.cfg.MaxInsts > 0 && (maxInsts == 0 || maxInsts > s.cfg.MaxInsts) {
		maxInsts = s.cfg.MaxInsts
	}
	return scale, maxInsts
}

// simContext derives the per-simulation context from the request's.
func (s *Server) simContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.Timeout)
	}
	return ctx, func() {}
}

// runKey is the result-cache identity of one simulation:
// bench|scale|max_insts|Config.Key, extended with the plan for sampled runs
// so sampled and full-detail results never alias. Non-sampled keys are
// unchanged by the existence of sampling.
func runKey(bench string, scale int, maxInsts uint64, cfg core.Config, sb *SampleBlock) string {
	key := fmt.Sprintf("%s|%d|%d|%s", bench, scale, maxInsts, cfg.Key())
	if sb != nil {
		key += "|sample:" + sb.Plan().Key()
	}
	return key
}

// newRunner builds a per-request harness runner: its unbounded internal
// cache lives exactly as long as the request, and its worker pool is the
// batching layer — cells share per-worker machines via Machine.Reset.
func (s *Server) newRunner(scale int, maxInsts uint64) *harness.Runner {
	runner := harness.NewRunner()
	runner.Scale = scale
	runner.MaxInsts = maxInsts
	runner.Parallelism = s.cfg.SweepParallelism
	if s.cfg.Timeout > 0 {
		runner.Timeout = s.cfg.Timeout
	}
	return runner
}

// serveCached answers one cacheable simulation request. An LRU hit is
// served as is; on a miss, compute runs once per key however many
// identical requests are in flight (singleflight), under the per-simulation
// deadline, and its marshaled response is cached. Compute errors map to
// 504 (deadline), 499 (client gone) or 500 and count under errMetric. The
// X-Cache header reports HIT, MISS or COALESCED.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, errMetric string, compute func(ctx context.Context) (any, error)) {
	s.mu.Lock()
	body, hit := s.cache.get(key)
	s.mu.Unlock()
	if hit {
		s.metrics.Inc("server.cache.hits")
		writeJSONBody(w, "HIT", body)
		return
	}
	s.metrics.Inc("server.cache.misses")

	body, err, shared := s.flight.do(key, func() ([]byte, error) {
		ctx, cancel := s.simContext(r.Context())
		defer cancel()
		s.metrics.AddGauge("server.sims.inflight", 1)
		start := time.Now()
		resp, err := compute(ctx)
		s.metrics.AddGauge("server.sims.inflight", -1)
		s.metrics.Observe("server.run.seconds", runSecondsBounds, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		b = append(b, '\n')
		s.mu.Lock()
		evicted := s.cache.add(key, b)
		s.mu.Unlock()
		if evicted > 0 {
			s.metrics.Add("server.cache.evictions", uint64(evicted))
		}
		return b, nil
	})
	if err != nil {
		s.metrics.Inc(errMetric)
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			code = 499 // client closed request
		}
		writeError(w, code, err.Error())
		return
	}
	status := "MISS"
	if shared {
		s.metrics.Inc("server.coalesced")
		status = "COALESCED"
	}
	writeJSONBody(w, status, body)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.metrics.Inc("server.rejected")
		writeDraining(w)
		return
	}
	defer s.end()
	s.metrics.Inc("server.run.requests")

	var req RunRequest
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
	if req.Sample != nil {
		if err := req.Sample.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	scale, maxInsts := s.clamp(req.Scale, req.MaxInsts)
	key := runKey(req.Bench, scale, maxInsts, cfg, req.Sample)
	s.serveCached(w, r, key, "server.run.errors", func(ctx context.Context) (any, error) {
		resp := RunResponse{Bench: req.Bench, Scale: scale, MaxInsts: maxInsts}
		if req.Sample != nil {
			// Sampled runs go to a per-request harness runner (the pattern
			// handleSweep uses) so the plan's intervals fan out in parallel
			// instead of holding one pool worker for the whole program.
			sum, err := s.newRunner(scale, maxInsts).RunSampled(ctx, req.Bench, cfg, req.Sample.Plan())
			if err != nil {
				return nil, err
			}
			resp.Stats = statsFrom(cfg, sum.Stats)
			resp.Output, resp.ExitCode = sum.Output, sum.ExitCode
			resp.Sample = &sum.Extent
			return resp, nil
		}
		res := s.pool.run(ctx, req.Bench, scale, maxInsts, cfg)
		if res.err != nil {
			return nil, res.err
		}
		resp.Stats = statsFrom(cfg, res.stats)
		resp.Output, resp.ExitCode = res.output, res.exitCode
		return resp, nil
	})
}

// runSecondsBounds buckets simulation wall-clock times.
var runSecondsBounds = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30}

func writeJSONBody(w http.ResponseWriter, cacheStatus string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	w.Write(body)
}

// resolveCells expands a SweepRequest into its validated cell list: the
// benches × options cross product in deterministic bench-major order.
func resolveCells(req SweepRequest) ([]harness.SweepCell, error) {
	if req.Sample != nil {
		if err := req.Sample.Validate(); err != nil {
			return nil, err
		}
	}
	benches := req.Benches
	if len(benches) == 0 {
		benches = workload.Names()
	}
	for _, b := range benches {
		if _, err := workload.Get(b); err != nil {
			return nil, err
		}
	}
	if len(req.Options) == 0 {
		return nil, errors.New("sweep needs at least one configuration in options")
	}
	cfgs := make([]core.Config, len(req.Options))
	for i, o := range req.Options {
		cfg, err := o.Config()
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return harness.Grid(benches, cfgs), nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		s.metrics.Inc("server.rejected")
		writeDraining(w)
		return
	}
	defer s.end()
	s.metrics.Inc("server.sweep.requests")

	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cells, err := resolveCells(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(cells) > s.cfg.MaxSweepCells {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep of %d cells exceeds the server bound of %d", len(cells), s.cfg.MaxSweepCells))
		return
	}

	scale, maxInsts := s.clamp(req.Scale, req.MaxInsts)
	s.metrics.Add("server.sweep.cells", uint64(len(cells)))

	runner := s.newRunner(scale, maxInsts)
	if req.Sample != nil {
		// A request-level plan samples every cell as a whole-plan run.
		plan := req.Sample.Plan()
		runner.Sample = &plan
	}
	ready := make([]chan harness.SweepResult, len(cells))
	for i := range ready {
		ready[i] = make(chan harness.SweepResult, 1)
	}
	runner.OnResult = func(i int, res harness.SweepResult) { ready[i] <- res }

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		runner.Sweep(ctx, cells)
	}()

	// Stream one NDJSON line per cell, in deterministic cell order, each
	// flushed as soon as its result (or error) is in. Per-cell failures
	// never abort the stream — the Done line carries the failure total,
	// the streaming analogue of RunAll's errors.Join contract. While a
	// cell is still computing, heartbeat comment lines keep idle
	// proxies/load balancers from severing the connection.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	var tick <-chan time.Time
	if s.cfg.Heartbeat > 0 {
		ticker := time.NewTicker(s.cfg.Heartbeat)
		defer ticker.Stop()
		tick = ticker.C
	}
	// abort stops the sweep and drains every not-yet-consumed cell so the
	// runner's workers can exit; the derived ctx reaches them at their
	// next deadline check, so abandoned requests stop consuming
	// simulation slots promptly.
	abort := func(from int) {
		cancel()
		s.metrics.Inc("server.sweep.aborted")
		for j := from; j < len(cells); j++ {
			<-ready[j]
		}
	}
	clientGone := r.Context().Done()
	failed := 0
stream:
	for i := range cells {
		for {
			select {
			case res := <-ready[i]:
				line := SweepLine{Index: i, Bench: res.Bench, Config: res.Cfg.Name()}
				if res.Err != nil {
					failed++
					line.Error = res.Err.Error()
					line.Attempts = res.Attempts
				} else {
					st := statsFrom(res.Cfg, res.Stats)
					line.Stats = &st
					if res.Summary != nil {
						// Sampled cells additionally carry the stitched summary
						// and the retry audit. Plain cells keep their
						// pre-sampling line shape byte for byte.
						line.Sample = &res.Summary.Extent
						line.Attempts = res.Attempts
					}
				}
				if err := enc.Encode(line); err != nil {
					abort(i + 1)
					break stream
				}
				flush()
			case <-tick:
				if _, err := io.WriteString(w, HeartbeatLine); err != nil {
					abort(i)
					break stream
				}
				s.metrics.Inc("server.sweep.heartbeats")
				flush()
				continue
			case <-clientGone:
				// The client hung up between lines; without this arm the
				// handler would only notice at the next write, holding
				// pool slots for a request nobody is reading.
				abort(i)
				break stream
			}
			break
		}
	}
	<-sweepDone
	if failed > 0 {
		s.metrics.Add("server.sweep.failed", uint64(failed))
	}
	enc.Encode(SweepLine{Done: true, Cells: len(cells), Failed: failed})
	flush()
}

// handleBenchmarks lists the registered workloads, in registry order.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	out := make([]BenchmarkEntry, 0, len(workload.Names()))
	for _, n := range workload.Names() {
		wl, err := workload.Get(n)
		if err != nil {
			continue
		}
		out = append(out, BenchmarkEntry{Name: wl.Name, Desc: wl.Desc})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	draining := s.draining
	s.stateMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// cacheLen reports the current result-cache entry count.
func (s *Server) cacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Set("server.cache.entries", float64(s.cacheLen()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}
