package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// sweepBody posts a sweep request and returns the raw NDJSON stream.
func sweepBody(t *testing.T, url string, req SweepRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d, body %s", resp.StatusCode, raw)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSweepHeartbeats(t *testing.T) {
	// A 1 ms heartbeat against multi-millisecond cells must interleave
	// comment lines; stripping them leaves a valid, ordered stream.
	s, ts := testServer(t, Config{Heartbeat: time.Millisecond})
	raw := sweepBody(t, ts.URL, SweepRequest{
		Benches:  []string{"vortex"},
		Options:  []SimOptions{{}, {Technique: "ir"}},
		MaxInsts: 60_000,
	})
	heartbeats, data := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			heartbeats++
			if sc.Text()+"\n" != HeartbeatLine {
				t.Errorf("heartbeat line = %q", sc.Text())
			}
			continue
		}
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		data++
	}
	if heartbeats == 0 {
		t.Error("no heartbeat lines in a slow sweep with a 1ms interval")
	}
	if data != 3 {
		t.Errorf("data lines = %d, want 3", data)
	}
	if s.Metrics().Counter("server.sweep.heartbeats") == 0 {
		t.Error("heartbeat counter not incremented")
	}
}

func TestSweepClientCancelFreesSlots(t *testing.T) {
	// An abandoned sweep must stop consuming simulation slots promptly:
	// the handler notices the cancelled request context between lines
	// (not merely at the next failed write) and the runner's workers see
	// the derived context. Observable as a fast, clean drain.
	s, ts := testServer(t, Config{Workers: 2, SweepParallelism: 2})
	req := SweepRequest{
		Benches:  []string{"vortex", "gcc", "perl", "go"},
		Options:  []SimOptions{{}, {Technique: "ir"}, {Technique: "vp"}, {Technique: "hybrid"}},
		MaxInsts: 400_000,
	}
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first line so the sweep is demonstrably in flight, then
	// hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The drain below can only complete once the abandoned request's
	// in-flight accounting is released and its workers unwound.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer dcancel()
	start := time.Now()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after client cancel: %v", err)
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("drain took %v; cancellation did not propagate promptly", waited)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Counter("server.sweep.aborted") == 0 {
		if time.Now().After(deadline) {
			t.Error("sweep abort not recorded")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDrainRetryAfter(t *testing.T) {
	s, ts := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/run", "/v1/sweep"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s status = %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
			t.Errorf("%s Retry-After = %q, want %q", path, ra, retryAfterSeconds)
		}
	}
}
