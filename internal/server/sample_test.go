package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testServerWithRequestID is testServer with the request-id middleware in
// front, so error bodies carry a request_id like production deployments.
func testServerWithRequestID(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(WithRequestID(s.Handler(), io.Discard))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return ts
}

// TestSampleValidation covers the satellite contract: malformed sample
// blocks are rejected with a structured 400 whose body threads the
// request id.
func TestSampleValidation(t *testing.T) {
	ts := testServerWithRequestID(t, Config{})
	cases := []struct {
		name string
		path string
		body string
		want string // substring of the error message
	}{
		{"run zero interval", "/v1/run",
			`{"bench":"vortex","sample":{}}`,
			"sample.interval must be a positive"},
		{"run interval_index", "/v1/run",
			`{"bench":"vortex","sample":{"interval":1000,"interval_index":0}}`,
			`unknown field "interval_index"`},
		{"run warmup exceeds stride", "/v1/run",
			`{"bench":"vortex","sample":{"interval":10,"every":4,"warmup":1000}}`,
			"warmup"},
		{"sweep request-level interval_index", "/v1/sweep",
			`{"benches":["vortex"],"options":[{}],"sample":{"interval":1000,"interval_index":0}}`,
			`unknown field "interval_index"`},
		{"sweep cell zero interval", "/v1/sweep",
			`{"benches":["vortex"],"options":[{}],"sample":{"interval":0}}`,
			"sample.interval must be a positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("non-JSON error body: %v", err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error = %q, want substring %q", er.Error, tc.want)
			}
			if er.RequestID == "" {
				t.Errorf("400 body did not thread a request_id: %+v", er)
			}
			if er.RequestID != resp.Header.Get(RequestIDHeader) {
				t.Errorf("request_id %q != header %q", er.RequestID, resp.Header.Get(RequestIDHeader))
			}
		})
	}
}

// TestRunSampledEndpoint checks the sampled /v1/run contract: the response
// carries a stitched Sample summary, a 100%-coverage plan reproduces the
// non-sampled statistics exactly, and sampled results are cached under a key
// distinct from the non-sampled run so X-Cache semantics stay byte-identical
// for both.
func TestRunSampledEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	plain := RunRequest{Bench: "vortex", MaxInsts: 20_000}
	// One interval covering the whole program is the differential gate:
	// restoring the inst-0 checkpoint is a cold Reset, so the stitched run
	// must equal the non-sampled one bit for bit.
	sampled := RunRequest{Bench: "vortex", MaxInsts: 20_000,
		Sample: &SampleBlock{Interval: 1 << 30}}

	resp, plainBody := postRun(t, ts.URL, plain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain status = %d, body %s", resp.StatusCode, plainBody)
	}
	var pr RunResponse
	if err := json.Unmarshal(plainBody, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Sample != nil {
		t.Errorf("non-sampled response carries a sample block: %+v", pr.Sample)
	}

	// The sampled run must be a MISS: same bench/config, different key.
	resp2, sampledBody := postRun(t, ts.URL, sampled)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sampled status = %d, body %s", resp2.StatusCode, sampledBody)
	}
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("sampled first request X-Cache = %q, want MISS", got)
	}
	var sr RunResponse
	if err := json.Unmarshal(sampledBody, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sample == nil {
		t.Fatal("sampled response has no sample block")
	}
	if !sr.Sample.Exact || sr.Sample.Coverage != 1 {
		t.Errorf("full-coverage plan not exact: %+v", sr.Sample)
	}
	if sr.Sample.Intervals != 1 {
		t.Errorf("expected a single whole-program interval, got %d", sr.Sample.Intervals)
	}
	if sr.Sample.TotalInsts != sr.Sample.SampledInsts {
		t.Errorf("full coverage sampled %d of %d insts", sr.Sample.SampledInsts, sr.Sample.TotalInsts)
	}
	// 100% coverage is the differential gate: stitched statistics and
	// architectural results must equal the non-sampled run bit for bit.
	if sr.Stats != pr.Stats {
		t.Errorf("sampled stats diverge from full run:\n%+v\n%+v", sr.Stats, pr.Stats)
	}
	if sr.Output != pr.Output || sr.ExitCode != pr.ExitCode {
		t.Errorf("sampled output/exit diverge: %q/%d vs %q/%d",
			sr.Output, sr.ExitCode, pr.Output, pr.ExitCode)
	}

	// Repeats hit their own cache entries, byte-identically.
	resp3, sampledBody2 := postRun(t, ts.URL, sampled)
	if got := resp3.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("sampled repeat X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(sampledBody, sampledBody2) {
		t.Errorf("sampled repeat body differs:\n%s\n%s", sampledBody, sampledBody2)
	}
	resp4, plainBody2 := postRun(t, ts.URL, plain)
	if got := resp4.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("plain repeat X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(plainBody, plainBody2) {
		t.Errorf("plain repeat body differs after sampled run:\n%s\n%s", plainBody, plainBody2)
	}
}

// sweepLines posts a sweep and decodes its NDJSON lines, heartbeats
// skipped.
func sweepLines(t *testing.T, url string, req SweepRequest) []SweepLine {
	t.Helper()
	var lines []SweepLine
	sc := bufio.NewScanner(bytes.NewReader(sweepBody(t, url, req)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepRequestLevelSample checks that a request-level sample block
// samples every cell of the sweep: each line carries a stitched summary and
// the attempts audit, and agrees with a sampled /v1/run under the same plan.
func TestSweepRequestLevelSample(t *testing.T) {
	_, ts := testServer(t, Config{})
	lines := sweepLines(t, ts.URL, SweepRequest{
		Benches:  []string{"vortex"},
		Options:  []SimOptions{{}, {Technique: "ir"}},
		MaxInsts: 15_000,
		Sample:   &SampleBlock{Interval: 4_000},
	})
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	final := lines[2]
	if !final.Done || final.Cells != 2 || final.Failed != 0 {
		t.Fatalf("done line = %+v", final)
	}
	for _, l := range lines[:2] {
		if l.Error != "" || l.Stats == nil {
			t.Fatalf("cell %d failed: %+v", l.Index, l)
		}
		if l.Sample == nil {
			t.Errorf("sampled cell %d missing sample: %+v", l.Index, l)
			continue
		}
		if l.Attempts < 1 {
			t.Errorf("sampled cell %d attempts = %d, want >= 1", l.Index, l.Attempts)
		}
		if !l.Sample.Exact {
			t.Errorf("full-coverage cell %d not exact: %+v", l.Index, l.Sample)
		}
		if l.Stats.Committed != l.Sample.TotalInsts {
			t.Errorf("cell %d stitched %d committed, summary says %d",
				l.Index, l.Stats.Committed, l.Sample.TotalInsts)
		}
	}
	// The sampled sweep cell must agree bit for bit with a sampled /v1/run
	// under the same plan — both paths stitch the same interval results.
	resp, rbody := postRun(t, ts.URL, RunRequest{Bench: "vortex", MaxInsts: 15_000,
		Sample: &SampleBlock{Interval: 4_000}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatal(err)
	}
	if *lines[0].Stats != rr.Stats {
		t.Errorf("sampled sweep cell diverges from sampled run:\n%+v\n%+v", *lines[0].Stats, rr.Stats)
	}
	if !reflect.DeepEqual(lines[0].Sample, rr.Sample) {
		t.Errorf("sweep summary %+v != run summary %+v", lines[0].Sample, rr.Sample)
	}
}
