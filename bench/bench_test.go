package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets the tests run this test binary as the benchmark itself
// (and its children): with BENCH_AS_MAIN=1 it behaves like the command.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// benchmarkCmd runs the benchmark with args from the repository root, as
// bench/run.sh does, and returns its output lines; it fails the test
// unless the command exits with code 0.
func benchmarkCmd(t *testing.T, args ...string) []string {
	t.Helper()
	lines, err := benchmarkOutput(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// benchmarkOutput is benchmarkCmd for a run that may fail: it returns the
// output lines and the run's error.
func benchmarkOutput(t *testing.T, args ...string) ([]string, error) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = ".."
	cmd.Env = append(os.Environ(), "BENCH_AS_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	runErr := cmd.Run()
	if runErr != nil {
		runErr = fmt.Errorf("bench %v: %v\n%s", args, runErr, errOut.String())
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatalf("bench %v printed nothing (%v)", args, runErr)
	}
	return lines, runErr
}

func TestOrderFollowsSeed(t *testing.T) {
	for _, n := range []int{len(paperExperiments()), len(stallCells())} {
		if !reflect.DeepEqual(order(1, 0, n), order(1, 0, n)) {
			t.Errorf("n=%d: the same seed gave different orders", n)
		}
		if reflect.DeepEqual(order(1, 0, n), order(2, 0, n)) {
			t.Errorf("n=%d: seeds 1 and 2 gave the same order", n)
		}
		if reflect.DeepEqual(order(1, 0, n), order(1, 1, n)) {
			t.Errorf("n=%d: reps 0 and 1 of seed 1 gave the same order", n)
		}
	}
}

// TestSeedsAgree runs the workloads whose seed orders the work, in this
// process at tiny size, and checks that the order changes no result.
func TestSeedsAgree(t *testing.T) {
	for _, w := range []string{"paper-suite", "stall-sweep"} {
		var digests []string
		for _, seed := range []int64{1, 2} {
			res := runChild(childOpts{workload: w, seed: seed, tiny: true})
			if res.Failed != 0 || res.Digest == "" {
				t.Fatalf("%s seed %d: failed %d of %d: %v", w, seed, res.Failed, res.Ops, res.Errors)
			}
			digests = append(digests, res.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: seeds 1 and 2 produced different results", w)
		}
	}
}

func TestGoldenExitMatchesGCC(t *testing.T) {
	res := runChild(childOpts{workload: "long-base", tiny: true})
	if res.Failed != 0 {
		t.Fatalf("long-base: %v", res.Errors)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metric tables here and in
// BENCHMARK.json agree, names, units and directions alike, and so do the
// run lengths.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := readBenchmarkFile(filepath.Join("..", benchmarkPath))
	if err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, -seconds defaults to %d", def.RunSeconds, defaultSeconds)
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", layer, perLayer)
	}
}

// checkResult parses a run's output and checks that every metric of defs
// is printed for every workload with its unit, and that nothing failed.
func checkResult(t *testing.T, lines []string, defs []metricDef) {
	t.Helper()
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, w := range specs {
		for _, m := range defs {
			got, ok := res.Metrics[w.name+"/"+m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", w.name, m.name, got, ok, m.unit)
			}
		}
	}
	for _, l := range lines[:len(lines)-1] {
		var ml metricLine
		if err := json.Unmarshal([]byte(l), &ml); err != nil {
			t.Fatalf("metric line %q: %v", l, err)
		}
		if ml.Metric == "failed_frac" && ml.Median != 0 {
			t.Errorf("%s: failed_frac %v", ml.Workload, ml.Median)
		}
	}
}

// TestSmokeAllWorkloads runs the benchmark end to end at tiny sizes: one
// rep of every workload in fresh children, then a traced run of each.
func TestSmokeAllWorkloads(t *testing.T) {
	lines := benchmarkCmd(t, "-workload", "all", "-tiny", "-seconds", "1", "-seed", "2")
	checkResult(t, lines, endToEnd)
	failedFracs := 0
	for _, l := range lines {
		if bytes.Contains([]byte(l), []byte(`"metric":"failed_frac"`)) {
			failedFracs++
		}
	}
	if failedFracs != len(specs) {
		t.Errorf("printed %d failed_frac lines, want %d", failedFracs, len(specs))
	}

	dir := t.TempDir()
	lines = benchmarkCmd(t, "-workload", "all", "-tiny", "-seed", "1", "-trace", "1", "-spans", dir)
	checkResult(t, lines, perLayer)
	for _, w := range specs {
		b, err := os.ReadFile(filepath.Join(dir, w.name+".spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var s span
		if err := json.Unmarshal(bytes.SplitN(b, []byte("\n"), 2)[0], &s); err != nil || s.Workload != w.name {
			t.Errorf("%s span file: first span %+v, %v", w.name, s, err)
		}
	}
}

// abLines parses the A/B output: one line per end-to-end metric.
func abLines(t *testing.T, lines []string) []abLine {
	t.Helper()
	if len(lines) != len(endToEnd) {
		t.Fatalf("printed %d lines, want one per end-to-end metric (%d)", len(lines), len(endToEnd))
	}
	out := make([]abLine, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestABSmoke(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ab := []string{"-pairs", "2", "-workload", "stall-sweep", "-tiny", "-seconds", "1"}
	for _, a := range abLines(t, benchmarkCmd(t, append([]string{"-ab", bin + "," + bin}, ab...)...)) {
		switch a.Verdict {
		case verdictImproved, verdictRegressed, verdictUnresolved, verdictUnchanged:
		default:
			t.Errorf("%s: verdict %q", a.Metric, a.Verdict)
		}
		if a.Pairs != 2 || a.Failed != 0 || a.Parent.N != 2 || a.Change.N != 2 {
			t.Errorf("%s: %d pairs (%d failed), %d and %d values", a.Metric, a.Pairs, a.Failed, a.Parent.N, a.Change.N)
		}
	}

	// A change that cannot run must fail every metric, not win it.
	missing := filepath.Join(t.TempDir(), "no-such-benchmark")
	lines, err := benchmarkOutput(t, append([]string{"-ab", bin + "," + missing}, ab...)...)
	if err == nil {
		t.Error("an A/B run whose change fails exited with code 0")
	}
	for _, a := range abLines(t, lines) {
		if a.Verdict != verdictFailed || a.Failed != 2 || a.Pairs != 0 {
			t.Errorf("%s with a failing change: verdict %q, %d pairs, %d failed", a.Metric, a.Verdict, a.Pairs, a.Failed)
		}
	}
}
