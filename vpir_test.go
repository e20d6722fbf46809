package vpir

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBenchmarks(t *testing.T) {
	want := []string{"go", "m88ksim", "ijpeg", "perl", "vortex", "gcc", "compress"}
	got := Benchmarks()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bench %d = %s, want %s", i, got[i], want[i])
		}
	}
	infos := BenchmarkInfos()
	if len(infos) != len(want) {
		t.Fatalf("infos = %v", infos)
	}
	for _, in := range infos {
		if in.Desc == "" {
			t.Errorf("%s has no description", in.Name)
		}
	}
}

func TestRunBenchmarkBaseVsIR(t *testing.T) {
	opt := Options{MaxInsts: 60_000}
	base, err := RunBenchmark("gcc", 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Technique = IR
	ir, err := RunBenchmark("gcc", 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || ir.IPC <= 0 {
		t.Fatal("zero IPC")
	}
	if ir.ReuseResultRate <= 0 {
		t.Error("IR reported no reuse")
	}
	if base.Config != "base" || ir.Config != "IR" {
		t.Errorf("labels: %q, %q", base.Config, ir.Config)
	}
}

func TestRunBenchmarkVPKnobs(t *testing.T) {
	opt := Options{
		Technique: VP,
		Knobs:     Knobs{Scheme: "lvp", BranchResolution: "nsb", Reexec: "nme", VerifyLatency: 1},
		MaxInsts:  40_000,
	}
	res, err := RunBenchmark("perl", 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "VP_LVP NME-NSB vlat=1" {
		t.Errorf("config = %q", res.Config)
	}
	if res.VPResultPred <= 0 {
		t.Error("no predictions reported")
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Technique: "warp"},
		{Technique: VP, Knobs: Knobs{Scheme: "psychic"}},
		{Technique: VP, Knobs: Knobs{BranchResolution: "maybe"}},
		{Technique: VP, Knobs: Knobs{Reexec: "sometimes"}},
	}
	for _, o := range bad {
		if _, err := RunBenchmark("go", 1, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestRunSource(t *testing.T) {
	src := `
        .text
main:   li   $t0, 5
        li   $t1, 7
        mul  $a0, $t0, $t1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`
	res, err := RunSource("demo.s", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "35" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Error("no work simulated")
	}
}

func TestRunSourceErrors(t *testing.T) {
	if _, err := RunSource("bad.s", ".text\nmain: frobnicate $t0\n", Options{}); err == nil {
		t.Error("bad source accepted")
	}
}

func TestAssemble(t *testing.T) {
	text, data, err := Assemble("a.s", ".data\nx: .word 1, 2\n.text\nmain: syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	if text != 1 || data != 8 {
		t.Errorf("text=%d data=%d", text, data)
	}
}

func TestRegisterBenchmark(t *testing.T) {
	src := `
        .text
main:   li  $s0, 0
loop:   addiu $s0, $s0, 1
        slti $at, $s0, 2000
        bnez $at, loop
        li  $v0, 10
        syscall
`
	if err := RegisterBenchmark("counter", "test counter", src, nil); err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark("counter", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 2000 {
		t.Errorf("committed = %d", res.Committed)
	}
	if err := RegisterBenchmark("counter", "", src, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestAnalyzeRedundancy(t *testing.T) {
	r, err := AnalyzeRedundancy("ijpeg", 1, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total == 0 {
		t.Fatal("no instructions analyzed")
	}
	sum := r.UniquePct + r.RepeatedPct + r.DerivedPct + r.UnaccPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("classification doesn't sum to 100: %v", sum)
	}
	if r.ReusableOfRedundant <= 0 {
		t.Error("no reusable redundancy")
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Fatalf("experiments = %v", exps)
	}
	if exps[0] != "table1" || exps[13] != "fig10" {
		t.Errorf("order = %v", exps)
	}
}

func TestRunExperimentRendered(t *testing.T) {
	out, err := RunExperiment("fig3", 1, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3", "early", "late", "HM", "compress"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q:\n%s", want, out)
		}
	}
	if _, err := RunExperiment("fig99", 1, 0); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestHybridTechnique(t *testing.T) {
	res, err := RunBenchmark("gcc", 1, Options{Technique: Hybrid, MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "IR+VP_Magic ME-SB vlat=0" {
		t.Errorf("config = %q", res.Config)
	}
	if res.ReuseResultRate <= 0 || res.VPResultPred <= 0 {
		t.Errorf("hybrid should both reuse (%.1f%%) and predict (%.1f%%)",
			res.ReuseResultRate, res.VPResultPred)
	}
}

func TestStrideScheme(t *testing.T) {
	res, err := RunBenchmark("ijpeg", 1, Options{Technique: VP, Knobs: Knobs{Scheme: "stride"}, MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "VP_Stride ME-SB vlat=0" {
		t.Errorf("config = %q", res.Config)
	}
	if res.VPResultPred <= 0 {
		t.Error("stride made no correct predictions on ijpeg's strided loops")
	}
}

func TestTracePipeline(t *testing.T) {
	out, err := TracePipeline("compress", 1, Options{Technique: IR, MaxInsts: 5_000}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycles", "C", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if _, err := TracePipeline("nope", 1, Options{}, 5); err == nil {
		t.Error("unknown bench accepted")
	}
	if _, err := TracePipeline("compress", 1, Options{Technique: "bogus"}, 5); err == nil {
		t.Error("bad options accepted")
	}
	// The traced run goes through the same path as RunBenchmark: a timeout
	// is honoured, and options a diagram cannot carry are rejected rather
	// than silently dropped.
	for name, opt := range map[string]Options{
		"timed out": {Timeout: time.Nanosecond},
		"Sample":    {Sample: &SampleOptions{Interval: 1_000, Every: 10}},
		"Metrics":   {Metrics: &MetricsOptions{}},
	} {
		if _, err := TracePipeline("compress", 1, opt, 5); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestRunBenchmarkWithMetrics(t *testing.T) {
	res, err := RunBenchmark("compress", 1, Options{
		Technique: IR,
		MaxInsts:  30_000,
		Metrics:   &MetricsOptions{Interval: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("Options.Metrics set but Result.Obs is nil")
	}
	if res.Obs.Samples() < 2 {
		t.Errorf("samples = %d, want interval samples plus the final flush", res.Obs.Samples())
	}
	if res.Obs.SampleInterval() != 1000 {
		t.Errorf("interval = %d, want 1000", res.Obs.SampleInterval())
	}
	var series, events, prom strings.Builder
	if err := res.Obs.WriteSeriesJSONL(&series); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.WriteEventsJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Count(series.String(), "\n") != res.Obs.Samples() {
		t.Errorf("series lines %d != samples %d", strings.Count(series.String(), "\n"), res.Obs.Samples())
	}
	if !strings.Contains(series.String(), `"committed"`) || !strings.Contains(prom.String(), "vpir_stats_committed") {
		t.Error("exports missing the committed counter")
	}
	// Without Metrics the payload stays nil (and the run is uninstrumented).
	plain, err := RunBenchmark("compress", 1, Options{Technique: IR, MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Error("Result.Obs non-nil without Options.Metrics")
	}
	if plain.IPC != res.IPC || plain.Cycles != res.Cycles {
		t.Errorf("observer changed results: %v/%v cycles vs %v/%v",
			plain.IPC, plain.Cycles, res.IPC, res.Cycles)
	}
}

// TestSampledRunHonoursTimeout: Options.Timeout bounds a sampled run as a
// whole, so a paper-scale plan whose fast-forward alone takes seconds
// returns its deadline error promptly instead of after the pass.
func TestSampledRunHonoursTimeout(t *testing.T) {
	start := time.Now()
	_, err := RunBenchmark("gcc", 64, Options{Technique: IR, Timeout: 50 * time.Millisecond,
		Sample: &SampleOptions{Interval: 100_000, Every: 20, Warmup: 2_000}})
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if took > time.Second {
		t.Fatalf("deadline error came after %v, want under 1 s", took)
	}
}
