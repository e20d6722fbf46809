package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/technique"
)

// testServer builds a small server suitable for unit tests: few workers,
// short runs, and a tight cache so eviction is reachable.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := RunRequest{Bench: "vortex", MaxInsts: 20_000, Options: SimOptions{Technique: "ir"}}

	resp, body := postRun(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	if rr.Bench != "vortex" || rr.Scale != 1 || rr.MaxInsts != 20_000 {
		t.Errorf("echo fields = %q/%d/%d", rr.Bench, rr.Scale, rr.MaxInsts)
	}
	if rr.Stats.IPC <= 0 || rr.Stats.Committed == 0 || rr.Stats.Cycles == 0 {
		t.Errorf("implausible stats: %+v", rr.Stats)
	}
	if rr.Stats.Config != "IR" {
		t.Errorf("config label = %q, want IR", rr.Stats.Config)
	}
	if rr.Stats.ReuseResultRate <= 0 {
		t.Errorf("IR run reported no reuse: %+v", rr.Stats)
	}

	// The repeat must be a cache hit with a byte-identical body.
	resp2, body2 := postRun(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("repeat X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("repeat body differs:\n%s\n%s", body, body2)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown bench", `{"bench":"nope"}`},
		{"unknown technique", `{"bench":"vortex","options":{"technique":"warp"}}`},
		{"unknown scheme", `{"bench":"vortex","options":{"technique":"vp","scheme":"psychic"}}`},
		{"malformed json", `{"bench":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("error body: %v %+v", err, er)
			}
		})
	}
}

func TestRunClamp(t *testing.T) {
	_, ts := testServer(t, Config{MaxInsts: 10_000, MaxScale: 2})
	// Asks for an unbounded run at a huge scale; both must be clamped and
	// the effective values echoed.
	resp, body := postRun(t, ts.URL, RunRequest{Bench: "vortex", Scale: 99})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.MaxInsts != 10_000 || rr.Scale != 2 {
		t.Errorf("clamped to max_insts=%d scale=%d, want 10000/2", rr.MaxInsts, rr.Scale)
	}
	if rr.Stats.Committed > 10_000+64 {
		t.Errorf("committed %d escaped the clamp", rr.Stats.Committed)
	}
}

func TestCacheEviction(t *testing.T) {
	s, ts := testServer(t, Config{CacheEntries: 2})
	for _, insts := range []uint64{10_000, 11_000, 12_000, 13_000} {
		resp, body := postRun(t, ts.URL, RunRequest{Bench: "vortex", MaxInsts: insts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
	}
	if ev := s.Metrics().Counter("server.cache.evictions"); ev == 0 {
		t.Error("4 distinct results through a 2-entry cache evicted nothing")
	}
	if n := s.cacheLen(); n > 2 {
		t.Errorf("cache holds %d entries, bound is 2", n)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := SweepRequest{
		Benches:  []string{"vortex", "gcc"},
		Options:  []SimOptions{{}, {Technique: "ir"}, {Technique: "vp"}},
		MaxInsts: 15_000,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []SweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 7 { // 2 benches x 3 configs + done line
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	final := lines[len(lines)-1]
	if !final.Done || final.Cells != 6 || final.Failed != 0 {
		t.Errorf("done line = %+v", final)
	}
	// Cell order is deterministic bench-major: vortex x {base, IR, VP...},
	// then gcc.
	wantBench := []string{"vortex", "vortex", "vortex", "gcc", "gcc", "gcc"}
	for i, l := range lines[:6] {
		if l.Index != i || l.Bench != wantBench[i] {
			t.Errorf("line %d = index %d bench %s, want %d %s", i, l.Index, l.Bench, i, wantBench[i])
		}
		if l.Error != "" || l.Stats == nil {
			t.Errorf("cell %d failed: %+v", i, l)
			continue
		}
		if l.Stats.IPC <= 0 {
			t.Errorf("cell %d has zero IPC", i)
		}
	}
	// The same (bench, config) must agree with a /v1/run of that cell.
	rresp, rbody := postRun(t, ts.URL, RunRequest{Bench: "vortex", MaxInsts: 15_000})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", rresp.StatusCode)
	}
	var rr RunResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatal(err)
	}
	if *lines[0].Stats != rr.Stats {
		t.Errorf("sweep cell and run disagree:\n%+v\n%+v", *lines[0].Stats, rr.Stats)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxSweepCells: 4})
	cases := []struct {
		name string
		body string
	}{
		{"unknown bench", `{"benches":["nope"],"options":[{}]}`},
		{"no options", `{"benches":["vortex"]}`},
		{"bad config", `{"benches":["vortex"],"options":[{"technique":"warp"}]}`},
		{"too many cells", `{"benches":["vortex","gcc","perl"],"options":[{},{"technique":"ir"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []BenchmarkEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("got %d benchmarks, want 7", len(entries))
	}
	for _, e := range entries {
		if e.Name == "" || e.Desc == "" {
			t.Errorf("incomplete entry %+v", e)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Run once (miss) and again (hit) so the cache counters are nonzero.
	req := RunRequest{Bench: "vortex", MaxInsts: 10_000}
	postRun(t, ts.URL, req)
	postRun(t, ts.URL, req)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	prom := buf.String()
	for _, want := range []string{
		"vpir_server_run_requests_total 2",
		"vpir_server_cache_hits_total 1",
		"vpir_server_cache_misses_total 1",
		"vpir_server_cache_entries 1",
		"vpir_server_run_seconds_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q:\n%s", want, prom)
		}
	}
	if s.Metrics().Counter("server.cache.hits") != 1 {
		t.Errorf("hit counter = %d", s.Metrics().Counter("server.cache.hits"))
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining twice is fine.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	body, _ := json.Marshal(RunRequest{Bench: "vortex", MaxInsts: 5_000})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain run status = %d, want 503", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz = %d, want 503", hresp.StatusCode)
	}
	var st map[string]string
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil || st["status"] != "draining" {
		t.Errorf("healthz body = %v (%v)", st, err)
	}
}

func TestSimOptionsConfig(t *testing.T) {
	// Spot-check the wire mapping end to end: every technique spelling
	// resolves, and bad knobs fail loudly.
	for _, tc := range []struct {
		o    SimOptions
		name string
	}{
		{SimOptions{}, "base"},
		{SimOptions{Technique: "base"}, "base"},
		{SimOptions{Technique: "ir"}, "IR"},
		{SimOptions{Technique: "ir", Knobs: technique.Knobs{LateValidation: true}}, "IR late"},
		{SimOptions{Technique: "vp"}, "VP_Magic ME-SB vlat=0"},
		{SimOptions{Technique: "vp", Knobs: technique.Knobs{Scheme: "lvp", BranchResolution: "nsb", Reexec: "nme", VerifyLatency: 1}}, "VP_LVP NME-NSB vlat=1"},
		{SimOptions{Technique: "hybrid"}, "IR+VP_Magic ME-SB vlat=0"},
	} {
		cfg, err := tc.o.Config()
		if err != nil {
			t.Errorf("%+v: %v", tc.o, err)
			continue
		}
		if cfg.Name() != tc.name {
			t.Errorf("%+v -> %q, want %q", tc.o, cfg.Name(), tc.name)
		}
	}
	for _, bad := range []SimOptions{
		{Technique: "warp"},
		{Technique: "vp", Knobs: technique.Knobs{Scheme: "psychic"}},
		{Technique: "vp", Knobs: technique.Knobs{BranchResolution: "maybe"}},
		{Technique: "vp", Knobs: technique.Knobs{Reexec: "sometimes"}},
	} {
		if _, err := bad.Config(); err == nil {
			t.Errorf("%+v: want error", bad)
		}
	}
	// Watchdog override plumbs through.
	cfg, err := SimOptions{WatchdogCycles: 123}.Config()
	if err != nil || cfg.Watchdog != 123 {
		t.Errorf("watchdog = %d (%v), want 123", cfg.Watchdog, err)
	}
	cfg, err = SimOptions{WatchdogCycles: -1}.Config()
	if err != nil || cfg.Watchdog != 0 {
		t.Errorf("disabled watchdog = %d (%v), want 0", cfg.Watchdog, err)
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	// a was just used, so adding c must evict b.
	if ev := c.add("c", []byte("C")); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	// Disabled cache stores nothing.
	d := newLRU(-1)
	d.add("x", []byte("X"))
	if _, ok := d.get("x"); ok {
		t.Error("disabled cache cached")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		body   []byte
		shared bool
	}
	results := make(chan out, 3)
	go func() {
		body, _, shared := g.do("k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
		results <- out{body, shared}
	}()
	<-started
	for i := 0; i < 2; i++ {
		go func() {
			body, _, shared := g.do("k", func() ([]byte, error) {
				t.Error("duplicate execution")
				return nil, nil
			})
			results <- out{body, shared}
		}()
	}
	// Give the sharers a moment to park on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	sharedN := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if string(r.body) != "v" {
			t.Errorf("body = %q", r.body)
		}
		if r.shared {
			sharedN++
		}
	}
	if sharedN != 2 {
		t.Errorf("shared = %d, want 2", sharedN)
	}
}

func TestRunTimeout(t *testing.T) {
	// A 1ns budget cannot finish any simulation; the request must come
	// back 504, not hang.
	_, ts := testServer(t, Config{Timeout: 1 * time.Nanosecond})
	resp, body := postRun(t, ts.URL, RunRequest{Bench: "vortex", MaxInsts: 50_000})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
}

// TestUnknownTechniqueStructured400 is the regression test for the silent
// fallback bug: a misspelled technique or scheme used to resolve to the
// base machine and return a 200 with base numbers. Both endpoints must now
// reject it with a structured 400 naming the bad value, and — through the
// request-id middleware — echo the caller's X-Request-ID in the error body
// so the failure can be joined against the access log.
func TestUnknownTechniqueStructured400(t *testing.T) {
	ts := testServerWithRequestID(t, Config{})
	cases := []struct {
		name string
		path string
		body string
		want string // substring the error must carry
	}{
		{"run unknown technique", "/v1/run",
			`{"bench":"vortex","options":{"technique":"warp"}}`,
			`unknown technique "warp"`},
		{"run unknown scheme", "/v1/run",
			`{"bench":"vortex","options":{"technique":"vp","scheme":"psychic"}}`,
			`unknown scheme "psychic"`},
		{"run unconsumed knob", "/v1/run",
			`{"bench":"vortex","options":{"technique":"ir","scheme":"lvp"}}`,
			`does not take a scheme`},
		{"sweep grid unknown technique", "/v1/sweep",
			`{"benches":["vortex"],"options":[{"technique":"warp"}]}`,
			`unknown technique "warp"`},
		{"sweep cell unknown scheme", "/v1/sweep",
			`{"benches":["vortex"],"options":[{"technique":"hybrid","scheme":"psychic"}]}`,
			`unknown scheme "psychic"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(RequestIDHeader, "client-trace-42")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (silent fallback regression)", resp.StatusCode)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body is not structured JSON: %v", err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error %q does not name the bad value (want substring %q)", er.Error, tc.want)
			}
			if er.RequestID != "client-trace-42" {
				t.Errorf("request_id = %q, want the inbound X-Request-ID echoed", er.RequestID)
			}
		})
	}
}

// TestRequestFieldsStrict pins strict request decoding: a field the request
// type does not have — such as the retired explicit "cells" sweep form, or
// a misspelled knob — is a structured 400 naming the field, instead of a
// different request silently served. The exact bodies the embedded
// dashboard (ui/app.js) sends must still decode. Unknown fields inside a
// sample block are covered by TestSampleValidation.
func TestRequestFieldsStrict(t *testing.T) {
	ts := testServerWithRequestID(t, Config{})
	cases := []struct {
		name string
		path string
		body string
		want string // substring of the 400 error; empty = the body must succeed
	}{
		{"sweep cells", "/v1/sweep",
			`{"options":[{}],"cells":[{"bench":"vortex","options":{}}]}`,
			`unknown field "cells"`},
		{"run misspelled knob", "/v1/run",
			`{"bench":"vortex","options":{"technique":"vp","schema":"lvp"}}`,
			`unknown field "schema"`},
		{"trace unknown field", "/v1/trace",
			`{"bench":"vortex","max_insts":5000,"frames":10}`,
			`unknown field "frames"`},
		{"dashboard trace", "/v1/trace",
			`{"bench":"vortex","scale":1,"max_insts":5000,"options":{"technique":"vp","scheme":"magic","branch_resolution":"sb","reexec":"me"},"window":64}`,
			""},
		{"dashboard sweep", "/v1/sweep",
			`{"benches":[],"options":[{"technique":"ir"},{"technique":"vp","scheme":"lvp"}],"scale":1,"max_insts":5000}`,
			""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, raw)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("non-JSON error body %s: %v", raw, err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error = %q, want substring %q", er.Error, tc.want)
			}
			if er.RequestID == "" || er.RequestID != resp.Header.Get(RequestIDHeader) {
				t.Errorf("request_id %q does not match header %q", er.RequestID, resp.Header.Get(RequestIDHeader))
			}
		})
	}
}

func ExampleSimOptions() {
	cfg, _ := SimOptions{Technique: "vp", Knobs: technique.Knobs{Scheme: "lvp"}}.Config()
	fmt.Println(cfg.Name())
	// Output: VP_LVP ME-SB vlat=0
}
