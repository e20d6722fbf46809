package harness

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/stats"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

func init() {
	registerExp(Experiment{ID: "table1", Title: "Base machine parameters", Run: table1})
	registerExp(Experiment{ID: "table2", Title: "Benchmarks: instructions, branch and return prediction", Run: table2})
	registerExp(Experiment{ID: "table3", Title: "IR and VP rates", Run: table3})
	registerExp(Experiment{ID: "table4", Title: "Increase in branch squashes from spurious mispredictions", Run: table4})
	registerExp(Experiment{ID: "table5", Title: "Executed instructions squashed and recovered by IR", Run: table5})
	registerExp(Experiment{ID: "table6", Title: "Executions per instruction under VP_Magic ME-SB (vlat=1)", Run: table6})
	registerExp(Experiment{ID: "fig3", Title: "Early vs late validation speedups (IR)", Run: fig3})
	registerExp(Experiment{ID: "fig4", Title: "Branch resolution latency, normalized to base", Run: fig4})
	registerExp(Experiment{ID: "fig5", Title: "Resource contention, normalized to base", Run: fig5})
	registerExp(Experiment{ID: "fig6", Title: "Speedups: VP_Magic configurations and IR", Run: fig6})
	registerExp(Experiment{ID: "fig7", Title: "Speedups: VP_LVP configurations", Run: fig7})
	registerExp(Experiment{ID: "fig8", Title: "Result classification: unique/repeated/derivable", Run: fig8})
	registerExp(Experiment{ID: "fig9", Title: "Repeated instructions by input readiness", Run: fig9})
	registerExp(Experiment{ID: "fig10", Title: "Redundancy amenable to reuse", Run: fig10})
}

func table1(r *Runner) ([]*stats.Table, error) {
	cfg := core.DefaultConfig()
	t := &stats.Table{ID: "table1", Title: "Base simulator (Table 1 of the paper)",
		Columns: []string{"parameter", "value"}}
	t.AddRow("fetch", fmt.Sprintf("%d insts/cycle, 1 taken branch, no line crossing", cfg.FetchWidth))
	t.AddRow("icache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d-cycle miss",
		cfg.ICache.SizeBytes>>10, cfg.ICache.Ways, cfg.ICache.LineBytes, cfg.ICache.MissLatency))
	t.AddRow("bpred", fmt.Sprintf("gshare, %d-bit history, %dK counters",
		cfg.Bpred.HistoryBits, cfg.Bpred.TableEntries>>10))
	t.AddRow("window", fmt.Sprintf("OoO issue %d/cycle, %d-entry ROB, %d-entry LSQ, %d unresolved branches",
		cfg.IssueWidth, cfg.ROBSize, cfg.LSQSize, cfg.MaxBranches))
	t.AddRow("FUs", fmt.Sprintf("%d int ALU, %d ld/st, %d FP add, 1 int mult/div, 1 FP mult/div",
		cfg.IntALUs, cfg.MemPorts, cfg.FPAdders))
	t.AddRow("dcache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d-cycle miss, dual ported",
		cfg.DCache.SizeBytes>>10, cfg.DCache.Ways, cfg.DCache.LineBytes, cfg.DCache.MissLatency))
	t.AddRow("vpt", fmt.Sprintf("%d entries, %d-way", cfg.VP.ResultTable.Entries, cfg.VP.ResultTable.Ways))
	t.AddRow("rb", fmt.Sprintf("%d entries, %d-way", cfg.IR.Buffer.Entries, cfg.IR.Buffer.Ways))
	return []*stats.Table{t}, nil
}

func table2(r *Runner) ([]*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "table2", Title: "Benchmark programs (scaled kernels)",
		Columns: []string{"bench", "insts", "br pred %", "ret pred %"}}
	for _, b := range workload.Names() {
		s := base[b]
		t.AddRow(b, stats.N(s.Committed), stats.F(s.BranchPredRate()), stats.F(s.ReturnPredRate()))
	}
	t.Note("paper: 354-508M instructions; kernels are scaled to ~0.2-1M")
	return []*stats.Table{t}, nil
}

func table3(r *Runner) ([]*stats.Table, error) {
	ir, err := r.RunAll(core.IRChoice(false))
	if err != nil {
		return nil, err
	}
	mg, err := r.RunAll(magic(core.SB, core.ME, 0))
	if err != nil {
		return nil, err
	}
	lv, err := r.RunAll(lvp(core.SB, core.ME, 0))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "table3", Title: "Percentage IR and VP rates",
		Columns: []string{"bench", "IR res%", "IR addr%",
			"Mg pred%", "Mg mis%", "Mg apred%", "Mg amis%",
			"LVP pred%", "LVP mis%", "LVP apred%", "LVP amis%"}}
	for _, b := range workload.Names() {
		mp, mm := mg[b].VPResultRates()
		map_, mam := mg[b].VPAddrRates()
		lp, lm := lv[b].VPResultRates()
		lap, lam := lv[b].VPAddrRates()
		t.AddRow(b,
			stats.F(ir[b].ReuseResultRate()), stats.F(ir[b].ReuseAddrRate()),
			stats.F(mp), stats.F(mm), stats.F(map_), stats.F(mam),
			stats.F(lp), stats.F(lm), stats.F(lap), stats.F(lam))
	}
	t.Note("result %% over committed instructions; address %% over committed memory ops")
	return []*stats.Table{t}, nil
}

func table4(r *Runner) ([]*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfgs := []struct {
		label string
		cfg   core.Config
	}{
		{"Magic ME-SB", magic(core.SB, core.ME, 0)},
		{"Magic NME-SB", magic(core.SB, core.NME, 0)},
		{"LVP ME-SB", lvp(core.SB, core.ME, 0)},
		{"LVP NME-SB", lvp(core.SB, core.NME, 0)},
	}
	t := &stats.Table{ID: "table4", Title: "Increase in branch squashes due to value misprediction (%)",
		Columns: []string{"bench", "Magic ME-SB", "Magic NME-SB", "LVP ME-SB", "LVP NME-SB"}}
	rows := map[string][]string{}
	for _, b := range workload.Names() {
		rows[b] = []string{b}
	}
	for _, c := range cfgs {
		res, err := r.RunAll(c.cfg)
		if err != nil {
			return nil, err
		}
		for _, b := range workload.Names() {
			inc := 0.0
			if base[b].Squashes > 0 {
				inc = 100 * (float64(res[b].Squashes) - float64(base[b].Squashes)) / float64(base[b].Squashes)
			}
			rows[b] = append(rows[b], stats.F(inc))
		}
	}
	for _, b := range workload.Names() {
		t.AddRow(rows[b]...)
	}
	t.Note("NSB configurations do not change the squash count (resolution waits for final operands)")
	return []*stats.Table{t}, nil
}

func table5(r *Runner) ([]*stats.Table, error) {
	ir, err := r.RunAll(core.IRChoice(false))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "table5", Title: "Executed instructions squashed, and squashed work recovered by IR",
		Columns: []string{"bench", "inst executed", "exec squashed %", "squashed recovered %"}}
	for _, b := range workload.Names() {
		s := ir[b]
		t.AddRow(b, stats.N(s.Executed), stats.F(s.ExecSquashedPct()), stats.F(s.RecoveredPct()))
	}
	return []*stats.Table{t}, nil
}

func table6(r *Runner) ([]*stats.Table, error) {
	res, err := r.RunAll(magic(core.SB, core.ME, 1))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "table6", Title: "Percent of instructions executed once, twice, thrice (Magic ME-SB, vlat=1)",
		Columns: []string{"bench", "1", "2", "3+"}}
	for _, b := range workload.Names() {
		p := res[b].ExecTimesPct()
		t.AddRow(b, stats.F(p[0]), stats.F(p[1]), stats.F(p[2]))
	}
	return []*stats.Table{t}, nil
}

func fig3(r *Runner) ([]*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	early, err := r.RunAll(core.IRChoice(false))
	if err != nil {
		return nil, err
	}
	late, err := r.RunAll(core.IRChoice(true))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "fig3", Title: "Percent speedup over base: early vs late validation",
		Columns: []string{"bench", "early %", "late %"}}
	var se, sl []float64
	for _, b := range workload.Names() {
		e := early[b].IPC() / base[b].IPC()
		l := late[b].IPC() / base[b].IPC()
		se = append(se, e)
		sl = append(sl, l)
		t.AddRow(b, stats.F(100*(e-1)), stats.F(100*(l-1)))
	}
	t.AddRow("HM", stats.F(100*(stats.HarmonicMean(se)-1)), stats.F(100*(stats.HarmonicMean(sl)-1)))
	return []*stats.Table{t}, nil
}

// brLatTable builds one normalized branch-resolution-latency table at a
// given verification latency.
func brLatTable(r *Runner, id string, vlat int) (*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: id,
		Title:   fmt.Sprintf("Branch resolution latency normalized to base (vlat=%d)", vlat),
		Columns: []string{"bench", "ME-SB", "NME-SB", "ME-NSB", "NME-NSB", "IR"}}
	grid := []core.Config{
		magic(core.SB, core.ME, vlat), magic(core.SB, core.NME, vlat),
		magic(core.NSB, core.ME, vlat), magic(core.NSB, core.NME, vlat),
	}
	results := make([]map[string]core.Stats, len(grid))
	for i, cfg := range grid {
		if results[i], err = r.RunAll(cfg); err != nil {
			return nil, err
		}
	}
	ir, err := r.RunAll(core.IRChoice(false))
	if err != nil {
		return nil, err
	}
	for _, b := range workload.Names() {
		row := []string{b}
		for i := range grid {
			row = append(row, stats.F2(results[i][b].MeanBrResolveLat()/base[b].MeanBrResolveLat()))
		}
		row = append(row, stats.F2(ir[b].MeanBrResolveLat()/base[b].MeanBrResolveLat()))
		t.AddRow(row...)
	}
	return t, nil
}

func fig4(r *Runner) ([]*stats.Table, error) {
	a, err := brLatTable(r, "fig4a", 0)
	if err != nil {
		return nil, err
	}
	b, err := brLatTable(r, "fig4b", 1)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{a, b}, nil
}

func fig5(r *Runner) ([]*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{ID: "fig5", Title: "Resource contention normalized to base (vlat=0)",
		Columns: []string{"bench", "IR", "ME-SB", "NME-SB", "ME-NSB", "NME-NSB"}}
	ir, err := r.RunAll(core.IRChoice(false))
	if err != nil {
		return nil, err
	}
	grid := vpGrid(vp.Magic, 0)
	results := make([]map[string]core.Stats, len(grid))
	for i, cfg := range grid {
		if results[i], err = r.RunAll(cfg); err != nil {
			return nil, err
		}
	}
	norm := func(s core.Stats, b string) string {
		if base[b].Contention() == 0 {
			return "-"
		}
		return stats.F2(s.Contention() / base[b].Contention())
	}
	for _, b := range workload.Names() {
		row := []string{b, norm(ir[b], b)}
		for i := range grid {
			row = append(row, norm(results[i][b], b))
		}
		t.AddRow(row...)
	}
	t.Note("contention = resource denials / resource requests (FUs, cache ports, result buses)")
	return []*stats.Table{t}, nil
}

// speedupTable renders speedups over base for a set of configurations.
func speedupTable(r *Runner, id, title string, cfgs []core.Config, labels []string, withIR bool) (*stats.Table, error) {
	base, err := r.RunAll(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cols := append([]string{"bench"}, labels...)
	if withIR {
		cols = append(cols, "IR")
	}
	t := &stats.Table{ID: id, Title: title, Columns: cols}
	results := make([]map[string]core.Stats, len(cfgs))
	for i, cfg := range cfgs {
		if results[i], err = r.RunAll(cfg); err != nil {
			return nil, err
		}
	}
	var ir map[string]core.Stats
	if withIR {
		if ir, err = r.RunAll(core.IRChoice(false)); err != nil {
			return nil, err
		}
	}
	speedups := make([][]float64, len(cfgs)+1)
	for _, b := range workload.Names() {
		row := []string{b}
		for i := range cfgs {
			sp := results[i][b].IPC() / base[b].IPC()
			speedups[i] = append(speedups[i], sp)
			row = append(row, stats.F3(sp))
		}
		if withIR {
			sp := ir[b].IPC() / base[b].IPC()
			speedups[len(cfgs)] = append(speedups[len(cfgs)], sp)
			row = append(row, stats.F3(sp))
		}
		t.AddRow(row...)
	}
	hm := []string{"HM"}
	for i := range cfgs {
		hm = append(hm, stats.F3(stats.HarmonicMean(speedups[i])))
	}
	if withIR {
		hm = append(hm, stats.F3(stats.HarmonicMean(speedups[len(cfgs)])))
	}
	t.AddRow(hm...)
	return t, nil
}

var gridLabels = []string{"ME-SB", "NME-SB", "ME-NSB", "NME-NSB"}

func fig6(r *Runner) ([]*stats.Table, error) {
	a, err := speedupTable(r, "fig6a", "Speedups (IPC/IPC_base): VP_Magic, vlat=0, and IR",
		vpGrid(vp.Magic, 0), gridLabels, true)
	if err != nil {
		return nil, err
	}
	b, err := speedupTable(r, "fig6b", "Speedups (IPC/IPC_base): VP_Magic, vlat=1, and IR",
		vpGrid(vp.Magic, 1), gridLabels, true)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{a, b}, nil
}

func fig7(r *Runner) ([]*stats.Table, error) {
	a, err := speedupTable(r, "fig7a", "Speedups (IPC/IPC_base): VP_LVP, vlat=0",
		vpGrid(vp.LVP, 0), gridLabels, false)
	if err != nil {
		return nil, err
	}
	b, err := speedupTable(r, "fig7b", "Speedups (IPC/IPC_base): VP_LVP, vlat=1",
		vpGrid(vp.LVP, 1), gridLabels, false)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{a, b}, nil
}

func fig8(r *Runner) ([]*stats.Table, error) {
	t := &stats.Table{ID: "fig8", Title: "Classification of results (% of result-producing instructions)",
		Columns: []string{"bench", "unique", "repeated", "derivable", "unaccounted"}}
	for _, b := range workload.Names() {
		res, err := r.Redundancy(b)
		if err != nil {
			return nil, err
		}
		p := res.Percents()
		t.AddRow(b, stats.F(p.UniquePct), stats.F(p.RepeatedPct), stats.F(p.DerivedPct), stats.F(p.UnaccPct))
	}
	t.Note("10K buffered instances per static instruction, as in the paper")
	return []*stats.Table{t}, nil
}

func fig9(r *Runner) ([]*stats.Table, error) {
	t := &stats.Table{ID: "fig9", Title: "Repeated instructions by input readiness (% of repeated)",
		Columns: []string{"bench", "producers reused", "prod-dist >= 50", "prod-dist < 50"}}
	for _, b := range workload.Names() {
		res, err := r.Redundancy(b)
		if err != nil {
			return nil, err
		}
		p := res.Percents()
		t.AddRow(b, stats.F(p.ProducersReusedPct), stats.F(p.ProdFarPct), stats.F(p.ProdNearPct))
	}
	return []*stats.Table{t}, nil
}

func fig10(r *Runner) ([]*stats.Table, error) {
	t := &stats.Table{ID: "fig10", Title: "Amount of redundancy that can be reused (% of instructions)",
		Columns: []string{"bench", "redundant %", "reusable %", "reusable/redundant %"}}
	for _, b := range workload.Names() {
		res, err := r.Redundancy(b)
		if err != nil {
			return nil, err
		}
		p := res.Percents()
		t.AddRow(b, stats.F(p.RedundantPct), stats.F(p.ReusablePct), stats.F(p.ReusableOfRedundant))
	}
	t.Note("paper reports 84-97%% of redundancy reusable")
	return []*stats.Table{t}, nil
}
