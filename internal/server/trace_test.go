package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/vpir-sim/vpir/internal/technique"
)

var update = flag.Bool("update", false, "rewrite golden files")

func postTrace(t *testing.T, url string, req TraceRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/trace", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := TraceRequest{
		Bench:    "vortex",
		MaxInsts: 20_000,
		Options:  SimOptions{Technique: "hybrid", Knobs: technique.Knobs{Scheme: "stride"}},
		Window:   64,
	}

	resp, body := postTrace(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", got)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	if tr.Bench != "vortex" || tr.MaxInsts != 20_000 {
		t.Errorf("echo fields = %q/%d", tr.Bench, tr.MaxInsts)
	}
	if tr.Stats.IPC <= 0 || tr.Stats.Cycles == 0 {
		t.Errorf("implausible stats: %+v", tr.Stats)
	}

	// Pipetrace window: bounded, oldest-first, fully populated records.
	if tr.Window.Max != 64 {
		t.Errorf("window max = %d, want 64", tr.Window.Max)
	}
	if len(tr.Window.Insts) == 0 || len(tr.Window.Insts) > 64 {
		t.Fatalf("window has %d insts, want 1..64", len(tr.Window.Insts))
	}
	if tr.Window.Overwrote == 0 {
		t.Errorf("a 20k-inst run must overwrite a 64-entry ring")
	}
	prev := uint64(0)
	for i, ev := range tr.Window.Insts {
		if i > 0 && ev.Seq <= prev {
			t.Errorf("inst %d: seq %d not increasing after %d", i, ev.Seq, prev)
		}
		prev = ev.Seq
		if !strings.HasPrefix(ev.PC, "0x") || ev.Disasm == "" {
			t.Errorf("inst %d: pc %q disasm %q", i, ev.PC, ev.Disasm)
		}
		if ev.Decode < ev.Fetch {
			t.Errorf("inst %d: decode %d before fetch %d", i, ev.Decode, ev.Fetch)
		}
	}

	// Event log: present with lifetime counts.
	if tr.Events.Events == nil {
		t.Error("events.events must be [] not null")
	}
	if len(tr.Events.Counts) == 0 {
		t.Error("a hybrid run should have logged at least one event kind")
	}

	// Series: positional rows under an explicit header, cycle first.
	if len(tr.Series.Fields) == 0 || tr.Series.Fields[0] != "cycle" {
		t.Fatalf("series fields = %v, want leading cycle", tr.Series.Fields)
	}
	if len(tr.Series.Rows) == 0 {
		t.Fatal("series has no rows")
	}
	for i, row := range tr.Series.Rows {
		if len(row) != len(tr.Series.Fields) {
			t.Fatalf("row %d width %d != %d fields", i, len(row), len(tr.Series.Fields))
		}
	}
	// The observer flushes a final sample at halt, so the last row agrees
	// with the end-of-run stats.
	iCommitted := -1
	for j, f := range tr.Series.Fields {
		if f == "committed" {
			iCommitted = j
		}
	}
	if iCommitted < 0 {
		t.Fatalf("series fields %v missing committed", tr.Series.Fields)
	}
	last := tr.Series.Rows[len(tr.Series.Rows)-1]
	if uint64(last[iCommitted]) != tr.Stats.Committed {
		t.Errorf("final sample committed = %v, stats say %d", last[iCommitted], tr.Stats.Committed)
	}
}

func TestTraceByteStable(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := TraceRequest{Bench: "compress", MaxInsts: 15_000, Options: SimOptions{Technique: "ir"}}

	resp1, body1 := postTrace(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d, body %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postTrace(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("identical trace requests returned different bytes")
	}
}

func TestTraceValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []TraceRequest{
		{Bench: "no-such-bench", Options: SimOptions{Technique: "ir"}},
		{Bench: "vortex", Options: SimOptions{Technique: "warp-drive"}},
	}
	for _, req := range cases {
		resp, body := postTrace(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400 (body %s)", req, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%+v: bad error body %s", req, body)
		}
	}
}

func TestClampTrace(t *testing.T) {
	cases := []struct {
		in   TraceRequest
		want traceParams
	}{
		{TraceRequest{}, traceParams{window: DefaultTraceWindow, interval: 10_000, events: DefaultTraceEvents}},
		{TraceRequest{Window: 1 << 20, Events: 1 << 20, Interval: 1},
			traceParams{window: MaxTraceWindow, interval: MinTraceInterval, events: MaxTraceEvents}},
		{TraceRequest{Window: -5, Events: -5},
			traceParams{window: DefaultTraceWindow, interval: 10_000, events: DefaultTraceEvents}},
		{TraceRequest{Window: 32, Interval: 5_000, Events: 100},
			traceParams{window: 32, interval: 5_000, events: 100}},
	}
	for _, c := range cases {
		if got := clampTrace(c.in); got != c.want {
			t.Errorf("clampTrace(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestTraceKeyStable(t *testing.T) {
	run := runKey("gcc", 1, 30_000, mustConfig(t, SimOptions{Technique: "vp", Knobs: technique.Knobs{Scheme: "lvp"}}), nil)
	raw := TraceRequest{Window: 1 << 20}
	clamped := TraceRequest{Window: MaxTraceWindow}
	k1, k2 := traceKey(run, clampTrace(raw)), traceKey(run, clampTrace(clamped))
	if k1 != k2 {
		t.Errorf("raw and pre-clamped requests disagree on key:\n%s\n%s", k1, k2)
	}
	if !strings.HasPrefix(k1, "trace|gcc|1|30000|") {
		t.Errorf("key %q missing trace|bench|scale|insts prefix", k1)
	}
	if k1 == traceKey(run, clampTrace(TraceRequest{Window: 32})) {
		t.Errorf("capture bounds do not contribute to the key: %q", k1)
	}
}

// schemaOf flattens a decoded JSON value into sorted "path: type" lines —
// the shape of the payload without its values. Arrays describe their first
// element, so the golden pins per-record field sets too.
func schemaOf(v any, path string, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		out[path] = "object"
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			schemaOf(x[k], path+"."+k, out)
		}
	case []any:
		out[path] = "array"
		if len(x) > 0 {
			schemaOf(x[0], path+"[]", out)
		}
	case string:
		out[path] = "string"
	case float64:
		out[path] = "number"
	case bool:
		out[path] = "bool"
	case nil:
		out[path] = "null"
	}
}

// TestTraceGolden pins the /v1/trace payload schema. A field rename or
// removal is a wire-format break for dashboard and tooling consumers;
// regenerate with -update and review the diff when the change is meant.
func TestTraceGolden(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := TraceRequest{
		Bench:    "vortex",
		MaxInsts: 20_000,
		Options:  SimOptions{Technique: "hybrid", Knobs: technique.Knobs{Scheme: "stride"}},
		Window:   64,
	}
	resp, body := postTrace(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var decoded any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	flat := map[string]string{}
	schemaOf(decoded, "$", flat)
	paths := make([]string, 0, len(flat))
	for p := range flat {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var sb strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&sb, "%s: %s\n", p, flat[p])
	}
	got := sb.String()

	golden := filepath.Join("testdata", "trace_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TraceGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace payload schema changed; if intentional, rerun with -update and review.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestUIServed(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/ui/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/ui/ = %d", resp.StatusCode)
	}
	if !strings.Contains(strings.ToLower(string(body)), "<!doctype html") {
		t.Error("dashboard index is not HTML")
	}

	for _, asset := range []string{"app.js", "style.css"} {
		resp, err := http.Get(ts.URL + "/v1/ui/" + asset)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/ui/%s = %d", asset, resp.StatusCode)
		}
	}

	// Bare /v1/ui and / land on the dashboard.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, path := range []string{"/v1/ui", "/"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMovedPermanently || resp.Header.Get("Location") != "/v1/ui/" {
			t.Errorf("GET %s = %d -> %q, want 301 -> /v1/ui/", path, resp.StatusCode, resp.Header.Get("Location"))
		}
	}
}
