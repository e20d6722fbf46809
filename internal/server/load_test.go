package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/technique"
)

// TestServerLoad hammers /v1/run from many goroutines over a mix of
// duplicate and distinct configurations, then drains. It is the service's
// core concurrency contract in one test (run it with -race, as make check
// does): no data races, byte-identical responses for identical requests, a
// working cache (hit rate > 0), and a clean drain with nothing in flight
// left behind.
func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	s := New(Config{Workers: 4, Timeout: 60 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 4 distinct request shapes cycled by 8 goroutines x 12 requests: 96
	// requests over 4 simulations' worth of real work, so most requests
	// must be served by the cache or coalesced by singleflight.
	shapes := []RunRequest{
		{Bench: "vortex", MaxInsts: 15_000},
		{Bench: "vortex", MaxInsts: 15_000, Options: SimOptions{Technique: "ir"}},
		{Bench: "gcc", MaxInsts: 15_000, Options: SimOptions{Technique: "vp"}},
		{Bench: "compress", MaxInsts: 15_000, Options: SimOptions{Technique: "vp", Knobs: technique.Knobs{Scheme: "lvp"}}},
	}
	const (
		goroutines = 8
		perG       = 12
	)
	bodies := make([]map[string][]byte, goroutines) // shape key -> body seen
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make(map[string][]byte)
			bodies[g] = seen
			for i := 0; i < perG; i++ {
				shape := shapes[(g+i)%len(shapes)]
				key := fmt.Sprintf("%s|%s", shape.Bench, shape.Options.Technique)
				reqBody, _ := json.Marshal(shape)
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs[g] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[g] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				if prev, ok := seen[key]; ok && !bytes.Equal(prev, body) {
					errs[g] = fmt.Errorf("response for %s changed between requests", key)
					return
				}
				seen[key] = body
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// Identical configs must be byte-identical across goroutines too.
	canonical := make(map[string][]byte)
	for g, seen := range bodies {
		for key, body := range seen {
			if prev, ok := canonical[key]; ok && !bytes.Equal(prev, body) {
				t.Errorf("goroutine %d saw a different body for %s", g, key)
			}
			canonical[key] = body
		}
	}

	total := goroutines * perG
	hits := s.Metrics().Counter("server.cache.hits")
	misses := s.Metrics().Counter("server.cache.misses")
	coalesced := s.Metrics().Counter("server.coalesced")
	if hits == 0 {
		t.Errorf("no cache hits across %d requests over %d shapes", total, len(shapes))
	}
	if hits+misses != uint64(total) {
		t.Errorf("hits %d + misses %d != %d requests", hits, misses, total)
	}
	if got := s.Metrics().Counter("server.run.requests"); got != uint64(total) {
		t.Errorf("request counter = %d, want %d", got, total)
	}
	t.Logf("load: %d requests, %d hits, %d misses (%d coalesced)", total, hits, misses, coalesced)

	// Drain must complete promptly with nothing in flight, flip the
	// server to rejecting, and leave the in-flight gauge at zero.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if inflight := s.Metrics().Gauge("server.sims.inflight"); inflight != 0 {
		t.Errorf("in-flight gauge = %v after drain", inflight)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		bytes.NewReader([]byte(`{"bench":"vortex","max_insts":1000}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status = %d, want 503", resp.StatusCode)
	}
}

// TestServerDrainWaitsForInflight verifies the drain contract's other
// half: a request admitted before Drain finishes normally (200, not 503),
// and Drain only returns once it has.
func TestServerDrainWaitsForInflight(t *testing.T) {
	if testing.Short() {
		t.Skip("drain test skipped in -short mode")
	}
	s := New(Config{Workers: 1, Timeout: 60 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A long-ish run (full gcc) so Drain provably overlaps it.
	reqBody := []byte(`{"bench":"gcc"}`)
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()

	// Wait until the request is actually admitted before draining.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Counter("server.run.requests") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-inflight
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Errorf("in-flight request finished %d, want 200", r.status)
	}
}
