package main

import (
	"runtime/metrics"
	"strings"
)

// metricDef is one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names and units, plus each end-to-end
// metric's regression bound; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// layer is the module a per-layer metric belongs to.
func (m metricDef) layer() string {
	l, _, _ := strings.Cut(m.name, ".")
	return l
}

// endToEnd metrics come from untraced runs, one value per rep. failed_frac
// is printed on its own line but is not a BENCHMARK.json metric: it is 0
// when the benchmark is healthy, and the result line's failed count
// already carries it.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"simcycles_per_s", "cycles/s", "higher"},
}

// perLayer metrics come from one traced child: its spans, plus the
// overhead the parent measures against an untraced child.
var perLayer = []metricDef{
	{"workload.load_s", "s", "lower"},
	{"harness.cells", "count", "lower"},
	{"harness.simulations", "count", "lower"},
	{"harness.cache_hit_frac", "fraction", "higher"},
	{"harness.sweep_s", "s", "lower"},
	{"harness.redundancy_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"core.reset_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.sim_cycles", "cycles", "lower"},
	{"core.stepped_cycles", "cycles", "lower"},
	{"core.skip_frac", "fraction", "higher"},
	{"core.ns_per_stepped_cycle", "ns", "lower"},
	{"core.ns_per_stepped_cycle.base", "ns", "lower"},
	{"core.ns_per_stepped_cycle.ir", "ns", "lower"},
	{"core.ns_per_stepped_cycle.vp_magic", "ns", "lower"},
	{"core.ns_per_stepped_cycle.vp_lvp", "ns", "lower"},
	{"core.exec_per_commit", "ratio", "lower"},
	{"core.sim_ipc", "insts/cycle", "higher"},
	{"emu.insts_per_s", "insts/s", "higher"},
	{"emu.collect_trace_s", "s", "lower"},
	{"emu.oracle_mb", "MB", "lower"},
	{"emu.oracle_bytes_per_inst", "B/inst", "lower"},
	{"sample.ff_s", "s", "lower"},
	{"sample.ff_insts_per_s", "insts/s", "higher"},
	{"sample.checkpoints", "count", "lower"},
	{"sample.checkpoint_mb", "MB", "lower"},
	{"sample.interval_oracle_s", "s", "lower"},
	{"sample.interval_s", "s", "lower"},
	{"sample.stitch_s", "s", "lower"},
	{"sample.coverage", "fraction", "higher"},
	{"reuse.test_ns", "ns", "lower"},
	{"reuse.insert_ns", "ns", "lower"},
	{"reuse.invalidate_ns", "ns", "lower"},
	{"reuse.hit_frac", "fraction", "higher"},
	{"vp.predict_ns.magic", "ns", "lower"},
	{"vp.predict_ns.lvp", "ns", "lower"},
	{"vp.train_ns.magic", "ns", "lower"},
	{"vp.train_ns.lvp", "ns", "lower"},
	{"vp.correct_frac.magic", "fraction", "higher"},
	{"vp.correct_frac.lvp", "fraction", "higher"},
	{"bpred.predict_ns", "ns", "lower"},
	{"bpred.update_ns", "ns", "lower"},
	{"bpred.accuracy", "fraction", "higher"},
	{"mem.dcache_access_ns", "ns", "lower"},
	{"mem.dcache_miss_frac", "fraction", "lower"},
	{"redundancy.analyze_s", "s", "lower"},
	{"redundancy.insts_per_s", "insts/s", "higher"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.mallocs", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

const mb = 1 << 20

// goSample is the Go runtime's cumulative counters at one instant.
type goSample struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSample{v(0), v(1), v(2), v(3), v(4)}
}

// goAttrs are the runtime counters accrued between two samples, as the
// workload span's attributes.
func goAttrs(a, b goSample) []any {
	return []any{"alloc_bytes", b.allocBytes - a.allocBytes, "mallocs", b.mallocs - a.mallocs,
		"gc_cycles", b.gcCycles - a.gcCycles, "gc_cpu_s", b.gcCPU - a.gcCPU, "cpu_s", b.totalCPU - a.totalCPU}
}

// layerMetrics derives every per-layer metric except trace.overhead_frac
// from one traced child's spans. A metric sums over every span of its
// call, whether the workload or a probe made the call.
func layerMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sum := func(name, attr string) float64 {
		var t float64
		for i := range spans {
			if s := &spans[i]; s.Name == name {
				if attr == "" {
					t += float64(s.dur())
				} else {
					t += s.num(attr)
				}
			}
		}
		return t
	}
	var (
		sweepNS, redNS, cells, sims          float64
		runNS, cycles, skipped, commit, exec float64
		famNS, famStepped                    = map[string]float64{}, map[string]float64{}
		oracleBytes, oracleInsts             float64
		goS                                  *span
	)
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "harness.Experiment", "harness.RunSampled", "harness.Sweep", "harness.Redundancy":
			cells += s.num("cells")
			sims += s.num("simulations")
			if s.Name == "harness.Redundancy" || s.num("redundancy") == 1 {
				redNS += float64(self[s.ID])
			} else {
				sweepNS += float64(self[s.ID])
			}
		case "core.Run":
			d, c, sk := float64(s.dur()), s.num("cycles"), s.num("skipped")
			runNS += d
			cycles += c
			skipped += sk
			commit += s.num("committed")
			exec += s.num("executed")
			famNS[s.str("family")] += d
			famStepped[s.str("family")] += c - sk
		case "workload":
			goS = s
		}
		if b := s.num("oracle_bytes"); b > oracleBytes {
			oracleBytes, oracleInsts = b, s.num("insts")
		}
	}
	stepped := cycles - skipped
	out := map[string]float64{
		"workload.load_s":           sum("workload.Load", "") / 1e9,
		"harness.cells":             cells,
		"harness.simulations":       sims,
		"harness.cache_hit_frac":    ratio(cells-sims, cells),
		"harness.sweep_s":           sweepNS / 1e9,
		"harness.redundancy_s":      redNS / 1e9,
		"core.new_s":                sum("core.New", "") / 1e9,
		"core.reset_s":              sum("core.Reset", "") / 1e9,
		"core.run_s":                runNS / 1e9,
		"core.sim_cycles":           cycles,
		"core.stepped_cycles":       stepped,
		"core.skip_frac":            ratio(skipped, cycles),
		"core.ns_per_stepped_cycle": ratio(runNS, stepped),
		"core.exec_per_commit":      ratio(exec, commit),
		"core.sim_ipc":              ratio(commit, cycles),
		"emu.insts_per_s":           ratio(sum("emu.CPU.Run", "insts"), sum("emu.CPU.Run", "")/1e9),
		"emu.collect_trace_s":       sum("emu.CollectTrace", "") / 1e9,
		"emu.oracle_mb":             oracleBytes / mb,
		"emu.oracle_bytes_per_inst": ratio(oracleBytes, oracleInsts),
		"sample.ff_s":               sum("sample.FastForward", "") / 1e9,
		"sample.ff_insts_per_s":     ratio(sum("sample.FastForward", "insts"), sum("sample.FastForward", "")/1e9),
		"sample.checkpoints":        sum("sample.FastForward", "checkpoints"),
		"sample.checkpoint_mb":      sum("sample.FastForward", "checkpoint_bytes") / mb,
		"sample.interval_oracle_s":  sum("sample.IntervalOracle", "") / 1e9,
		"sample.interval_s":         (sum("core.NewRestored", "") + sum("core.ResetTo", "") + sum("sample.DriveInterval", "")) / 1e9,
		"sample.stitch_s":           sum("sample.Stitch", "") / 1e9,
		"sample.coverage":           ratio(sum("sample.Stitch", "sampled"), sum("sample.Stitch", "total")),
		"reuse.test_ns":             ratio(sum("reuse.Buffer", "test_ns"), sum("reuse.Buffer", "test_calls")),
		"reuse.insert_ns":           ratio(sum("reuse.Buffer", "insert_ns"), sum("reuse.Buffer", "insert_calls")),
		"reuse.invalidate_ns":       ratio(sum("reuse.Buffer", "invalidate_ns"), sum("reuse.Buffer", "invalidate_calls")),
		"reuse.hit_frac":            ratio(sum("reuse.Buffer", "hits"), sum("reuse.Buffer", "tests")),
		"bpred.predict_ns":          ratio(sum("bpred.Predictor", "predict_ns"), sum("bpred.Predictor", "calls")),
		"bpred.update_ns":           ratio(sum("bpred.Predictor", "update_ns"), sum("bpred.Predictor", "calls")),
		"bpred.accuracy":            ratio(sum("bpred.Predictor", "correct"), sum("bpred.Predictor", "calls")),
		"mem.dcache_access_ns":      ratio(sum("mem.Cache", "access_ns"), sum("mem.Cache", "calls")),
		"mem.dcache_miss_frac":      ratio(sum("mem.Cache", "misses"), sum("mem.Cache", "calls")),
		"redundancy.analyze_s":      sum("redundancy.Analyze", "") / 1e9,
		"redundancy.insts_per_s":    ratio(sum("redundancy.Analyze", "results"), sum("redundancy.Analyze", "")/1e9),
	}
	for _, f := range []string{"base", "ir", "vp_magic", "vp_lvp"} {
		out["core.ns_per_stepped_cycle."+f] = ratio(famNS[f], famStepped[f])
	}
	for _, scheme := range []string{"magic", "lvp"} {
		var pNS, tNS, calls, correct float64
		for i := range spans {
			if s := &spans[i]; s.Name == "vp.Table" && s.str("scheme") == "vp_"+scheme {
				pNS += s.num("predict_ns")
				tNS += s.num("train_ns")
				calls += s.num("calls")
				correct += s.num("correct")
			}
		}
		out["vp.predict_ns."+scheme] = ratio(pNS, calls)
		out["vp.train_ns."+scheme] = ratio(tNS, calls)
		out["vp.correct_frac."+scheme] = ratio(correct, calls)
	}
	if goS != nil {
		out["go.alloc_mb"] = goS.num("alloc_bytes") / mb
		out["go.mallocs"] = goS.num("mallocs")
		out["go.gc_cycles"] = goS.num("gc_cycles")
		out["go.gc_cpu_frac"] = ratio(goS.num("gc_cpu_s"), goS.num("cpu_s"))
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
