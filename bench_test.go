package vpir

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/faultinject"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// Every table and figure of the paper's evaluation has a benchmark that
// regenerates it. Runs are truncated (benchInsts dynamic instructions per
// benchmark) so `go test -bench=.` stays fast; use cmd/vpir-bench for the
// full-length numbers recorded in EXPERIMENTS.md.
const benchInsts = 100_000

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("full experiment benchmark skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		out, err := RunExperiment(id, 1, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, id) {
			b.Fatalf("experiment %s produced no table", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// Raw simulator throughput: simulated cycles and instructions per second
// for each pipeline variant, on the compress kernel. `make profile` profiles
// them, and the Metrics variant puts the cost of enabled observability next
// to BenchmarkSimBase in the same session (docs/observability.md). Rates
// compare only within one session: run parent and change interleaved.
func benchMachine(b *testing.B, cfg core.Config, observed bool) {
	benchMachineOn(b, "compress", cfg, observed)
}

func benchMachineOn(b *testing.B, bench string, cfg core.Config, observed bool) {
	b.Helper()
	if testing.Short() {
		b.Skip("full-kernel machine benchmark skipped in -short mode")
	}
	w, err := workload.Get(bench)
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		b.Fatal(err)
	}
	var cycles, insts uint64
	for i := 0; i < b.N; i++ {
		m, err := core.New(p, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if observed {
			m.AttachObserver(core.NewObserver(0, 0))
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		s := m.Stats()
		cycles += s.Cycles
		insts += s.Committed
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
}

func BenchmarkSimBase(b *testing.B) { benchMachine(b, core.DefaultConfig(), false) }

// BenchmarkSimBaseStall is the stall-heavy counterpart of BenchmarkSimBase:
// the base machine on the chase kernel, whose serial cache-missing loads
// keep the pipeline quiescent for most of its simulated cycles. The miss
// penalty is raised from the paper's 6 cycles to a realistic 60 so the run
// is genuinely memory-bound (the event wheel caps schedulable delays at 63,
// so total load latency — 1 cycle of address generation plus the access —
// must stay under that). This is the cell that guards the quiescence-aware
// cycle skipper's payoff — it must stay well ahead of the same run under
// VPIR_NO_SKIP=1 (see docs/performance.md).
func BenchmarkSimBaseStall(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.DCache.MissLatency = 60
	benchMachineOn(b, "chase", cfg, false)
}

func BenchmarkSimIR(b *testing.B) { benchMachine(b, core.IRChoice(false), false) }
func BenchmarkSimVP(b *testing.B) {
	benchMachine(b, core.VPChoice(vp.Magic, core.SB, core.ME, 1), false)
}

// Per-technique throughput for the extension predictors and the hybrid
// arbitration policies, so a predictor's lookup path can be profiled and
// A/B-timed like the paper configurations. Their allocation ceiling is
// TestAllocCeiling in internal/technique, which enumerates the registry.
func BenchmarkSimVPStride(b *testing.B) {
	benchMachine(b, core.VPChoice(vp.Stride, core.SB, core.ME, 1), false)
}
func BenchmarkSimVP2Delta(b *testing.B) {
	benchMachine(b, core.VPChoice(vp.TwoDelta, core.SB, core.ME, 1), false)
}
func BenchmarkSimVPFCM(b *testing.B) {
	benchMachine(b, core.VPChoice(vp.FCM, core.SB, core.ME, 1), false)
}
func BenchmarkSimHybrid(b *testing.B) {
	benchMachine(b, core.HybridChoice(vp.Magic, core.SB, core.ME, 1), false)
}
func BenchmarkSimHybridConf(b *testing.B) {
	benchMachine(b, core.HybridConfChoice(vp.Magic, core.SB, core.ME, 1), false)
}

// BenchmarkSimBaseMetrics is the instrumented counterpart of
// BenchmarkSimBase: same machine with an Observer attached at the default
// sampling interval, to keep the cost of enabled observability visible.
func BenchmarkSimBaseMetrics(b *testing.B) { benchMachine(b, core.DefaultConfig(), true) }

// benchMachineReset is benchMachine on a reused machine: one core.New,
// then Machine.Reset per iteration. The gap to the corresponding cold
// benchmark is what a sweep worker or server pool saves per run by pooling
// machines (construction amortizes away).
func benchMachineReset(b *testing.B, cfg core.Config) {
	b.Helper()
	if testing.Short() {
		b.Skip("full-kernel machine benchmark skipped in -short mode")
	}
	w, err := workload.Get("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(p, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	var cycles, insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		s := m.Stats()
		cycles += s.Cycles
		insts += s.Committed
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
}

func BenchmarkSimBaseReset(b *testing.B) { benchMachineReset(b, core.DefaultConfig()) }
func BenchmarkSimIRReset(b *testing.B)   { benchMachineReset(b, core.IRChoice(false)) }
func BenchmarkSimVPReset(b *testing.B) {
	benchMachineReset(b, core.VPChoice(vp.Magic, core.SB, core.ME, 1))
}

// Fault-injection campaign throughput: how long a full deterministic smoke
// campaign (baselines + injected runs + classification) takes end to end.
func BenchmarkFaultCampaign(b *testing.B) {
	if testing.Short() {
		b.Skip("fault campaign skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		c := faultinject.SmokeCampaign(1)
		reports, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := faultinject.Summarize(reports); !ok {
			b.Fatal("smoke campaign verdict FAIL")
		}
	}
}

// Fast-forward throughput on the base machine: the functional emulator with
// branch predictor and cache warming and checkpoint capture running, i.e.
// what a base-config sampled run pays per skipped instruction. The base
// warmer carries no VPT or RB; internal/sample's BenchmarkFastForward
// covers the technique tables. The gap to BenchmarkEmulator is the cost of
// warming; the gap to BenchmarkSimBase is the speedup ceiling sampling can
// buy.
func BenchmarkEmuFastForward(b *testing.B) {
	if testing.Short() {
		b.Skip("fast-forward benchmark skipped in -short mode")
	}
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		b.Fatal(err)
	}
	plan := sample.Plan{Interval: 200_000, Every: 1, Warmup: 2_000}
	cfg := core.DefaultConfig()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff, err := sample.FastForward(p, cfg, plan, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += ff.TotalInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSampledSpeedup is the sampling throughput gate on a paper-scale
// workload (gcc ×64 ≈ 65M dynamic instructions): effective simulated
// cycles per second — whole-program estimated cycles over wall time — of a
// checkpointed sampled run fanned across 8 workers, against the serial
// detailed simulation rate measured in the same process. The run fails
// outright below 5×, so `make bench-all` (which runs every benchmark once)
// guards the speedup as a same-session ratio. Deliberately outside the
// allocation ceiling: a 65M-inst fan-out allocates interval oracles by
// design.
func BenchmarkSampledSpeedup(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sampling benchmark skipped in -short mode")
	}
	// Serial detailed reference rate, on a truncated run of the same
	// scaled workload so the measurement costs seconds, not minutes.
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	m, err := core.New(p, cfg, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	refStart := time.Now()
	if err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	refRate := float64(m.Stats().Cycles) / time.Since(refStart).Seconds()

	plan := sample.Plan{Interval: 100_000, Every: 20, Warmup: 2_000}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		r.Scale = 64
		r.Parallelism = 8
		sum, err := r.RunSampled(context.Background(), "gcc", cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if sum.TotalInsts < 50_000_000 {
			b.Fatalf("workload too small for the gate: %d insts", sum.TotalInsts)
		}
		cycles += sum.Stats.Cycles
	}
	rate := float64(cycles) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "simcycles/s")
	b.ReportMetric(rate/refRate, "speedup")
	if rate < 5*refRate {
		b.Fatalf("sampled throughput %.3g simcycles/s is under 5x the serial detailed rate %.3g", rate, refRate)
	}
}

// Functional emulator throughput.
func BenchmarkEmulator(b *testing.B) {
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	for i := 0; i < b.N; i++ {
		c := emu.New(p)
		if _, err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		insts += c.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}
