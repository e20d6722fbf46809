package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// size holds every knob that scales a workload, so the smoke test runs the
// same code as the benchmark at a fraction of the cost.
type size struct {
	scale int
	// maxInsts caps each paper-suite cell (0 = full runs).
	maxInsts uint64
	// plan is sampled-gcc's sampling plan; the sample probe replays it on
	// every workload's programs.
	plan sample.Plan
	// cells is how many of stall-sweep's six cells run.
	cells int
	// probeInsts bounds the recorded stream, the core probe's runs and the
	// harness probe's cells, per program.
	probeInsts uint64
	// emuInsts bounds the emulator and redundancy probes, per program.
	emuInsts uint64
	// collectInsts bounds the CollectTrace probe, per program (0 = the
	// whole program). It matches the oracles the workload builds itself,
	// except where a core.New span of the workload already records one.
	collectInsts uint64
}

// paperPlan is the paper-scale sampling regime: 100 K-instruction
// intervals, one in twenty measured, 2 K instructions of detailed warmup.
var paperPlan = sample.Plan{Interval: 100_000, Every: 20, Warmup: 2_000}

// spec describes one workload.
type spec struct {
	name string
	why  string
	// repSeconds is the wall time of one rep on the reference box (2 cores,
	// see README.md); -seconds S runs round(S/repSeconds) reps, so both
	// sides of an A/B comparison run the same number of reps.
	repSeconds float64
	// harnessProbe makes traced runs drive the workload's programs through
	// a harness.Runner; paper-suite's own run already does.
	harnessProbe bool
	full, tiny   size
	newTask      func(size) task
}

// task is one rep of a workload inside a child process.
type task interface {
	// setup loads the programs and orders the work: what setup_s times.
	setup(j *job) error
	// run is the user's job: what run_s times.
	run(j *job) error
	// check verifies every output after a successful run; it is not timed.
	check(j *job) error
}

// specs lists the workloads in the order a -workload all run visits them.
var specs = []*spec{
	{
		name:       "paper-suite",
		why:        "every paper table and figure on one cached runner: the cycle loop and the reuse/VP hooks do most of the work",
		repSeconds: 14.2,
		full:       size{scale: 1, plan: paperPlan, probeInsts: 250_000, emuInsts: 4_000_000},
		tiny:       size{scale: 1, maxInsts: 5_000, plan: sample.Plan{Interval: 20_000, Every: 4, Warmup: 500}, probeInsts: 5_000, emuInsts: 20_000, collectInsts: 5_000},
		newTask:    func(sz size) task { return &paperSuite{size: sz} },
	},
	{
		name:         "sampled-gcc",
		why:          "paper-scale checkpointed sampling of gcc x128 under IR: emulation, warming, checkpoints and interval oracles dominate",
		repSeconds:   8.4,
		harnessProbe: true,
		full:         size{scale: 128, plan: paperPlan, probeInsts: 250_000, emuInsts: 4_000_000, collectInsts: paperPlan.Interval + paperPlan.Warmup},
		tiny:         size{scale: 1, plan: sample.Plan{Interval: 20_000, Every: 5, Warmup: 500}, probeInsts: 5_000, emuInsts: 20_000, collectInsts: 20_500},
		newTask:      func(sz size) task { return &sampledGCC{size: sz} },
	},
	{
		name:         "stall-sweep",
		why:          "pointer chase at long D-cache miss latencies: the core skips idle cycles and the technique hooks find nothing to reuse",
		repSeconds:   5.1,
		harnessProbe: true,
		full:         size{scale: 16, plan: paperPlan, cells: 6, probeInsts: 250_000, emuInsts: 4_000_000},
		tiny:         size{scale: 1, plan: sample.Plan{Interval: 20_000, Every: 2, Warmup: 500}, cells: 2, probeInsts: 5_000, emuInsts: 20_000},
		newTask:      func(sz size) task { return &stallSweep{size: sz} },
	},
	{
		name:         "long-base",
		why:          "one whole gcc x16 run on the base machine: the oracle holds every instruction and the technique hooks are bypassed",
		repSeconds:   4.7,
		harnessProbe: true,
		full:         size{scale: 16, plan: paperPlan, probeInsts: 250_000, emuInsts: 4_000_000, collectInsts: 250_000},
		tiny:         size{scale: 1, plan: sample.Plan{Interval: 20_000, Every: 5, Warmup: 500}, probeInsts: 5_000, emuInsts: 20_000, collectInsts: 5_000},
		newTask:      func(sz size) task { return &longBase{size: sz} },
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// job is the state one child shares between the task, the checks and the
// probes.
type job struct {
	size size
	seed int64
	rep  int
	tr   *tracer
	// inputs are the programs the workload runs, each with the machine it
	// runs them on; the probes replay them.
	inputs []input
	// Filled by run.
	ops       int
	simCycles float64
	// Filled by check: a hash of the simulated results, which every rep and
	// every seed must reproduce.
	digest string
	// wantSampled, when set, is the summary the sample probe's serial
	// replay of inputs[0] must stitch to.
	wantSampled *sample.Summary
}

type input struct {
	bench string
	scale int
	prog  *prog.Program
	cfg   core.Config
}

// load assembles a benchmark program and registers it as a probe input.
func (j *job) load(bench string, cfg core.Config) (*prog.Program, error) {
	w, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	sp := j.tr.start("workload.Load")
	p, err := w.Load(j.size.scale)
	sp.end("bench", bench, "scale", j.size.scale)
	if err != nil {
		return nil, err
	}
	j.inputs = append(j.inputs, input{bench: bench, scale: j.size.scale, prog: p, cfg: cfg})
	return p, nil
}

// order is the seed's permutation of n work items for one rep. Every rep
// and every seed must produce the same results, so checks compare digests
// across reps that ran their work in different orders.
func order(seed int64, rep, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(rep))).Perm(n)
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden returns a benchmark's expected output at a scale.
func golden(bench string, scale int) (string, error) {
	w, err := workload.Get(bench)
	if err != nil {
		return "", err
	}
	return w.Golden(scale), nil
}

// goldenExit is the exit code of a kernel that exits with the last number
// it prints, as gcc does (its exit syscall leaves $a0 holding the last
// printed checksum).
func goldenExit(out string) (int, error) {
	f := strings.Fields(out)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty golden output")
	}
	v, err := strconv.ParseInt(f[len(f)-1], 10, 32)
	return int(v), err
}

// family names a machine configuration's technique for per-family metrics.
func family(cfg core.Config) string {
	switch {
	case cfg.Technique == core.TechNone:
		return "base"
	case cfg.Technique == core.TechIR:
		return "ir"
	case cfg.Technique == core.TechVP && cfg.VP.Scheme == vp.Magic:
		return "vp_magic"
	case cfg.Technique == core.TechVP && cfg.VP.Scheme == vp.LVP:
		return "vp_lvp"
	}
	return strings.ToLower(cfg.Technique.String())
}

// runAttrs are the counts a core.Run span carries.
func runAttrs(m *core.Machine) []any {
	s := m.Stats()
	return []any{"family", family(m.Config()), "cycles", s.Cycles, "skipped", m.CyclesSkipped(),
		"committed", s.Committed, "executed", s.Executed}
}

// paperSuite regenerates every paper table and figure (ext-* excluded)
// on one harness.Runner, in an order drawn from the seed.
type paperSuite struct {
	size     size
	exps     []harness.Experiment
	rendered map[string]string
}

// redundancyExps are the experiments that call Runner.Redundancy.
var redundancyExps = map[string]bool{"fig8": true, "fig9": true, "fig10": true}

func paperExperiments() []harness.Experiment {
	var out []harness.Experiment
	for _, e := range harness.Experiments() {
		if !strings.HasPrefix(e.ID, "ext-") {
			out = append(out, e)
		}
	}
	return out
}

func (w *paperSuite) setup(j *job) error {
	for _, b := range workload.Names() {
		if _, err := j.load(b, core.DefaultConfig()); err != nil {
			return err
		}
	}
	exps := paperExperiments()
	for _, i := range order(j.seed, j.rep, len(exps)) {
		w.exps = append(w.exps, exps[i])
	}
	return nil
}

func (w *paperSuite) run(j *job) error {
	r := harness.NewRunner()
	r.Scale, r.MaxInsts, r.Parallelism = w.size.scale, w.size.maxInsts, 2
	var c cellCounter
	r.OnResult = c.observe
	w.rendered = make(map[string]string, len(w.exps))
	var errs []error
	for _, e := range w.exps {
		before := c.snapshot()
		sp := j.tr.start("harness.Experiment")
		tables, err := e.Run(r)
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.String())
		}
		d := c.snapshot().minus(before)
		red := 0
		if redundancyExps[e.ID] {
			red = 1
		}
		sp.end("exp", e.ID, "cells", d.cells, "simulations", d.sims, "redundancy", red)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, err))
		}
		w.rendered[e.ID] = b.String()
	}
	s := c.snapshot()
	j.ops, j.simCycles = s.sims, float64(s.cycles)
	return errors.Join(errs...)
}

func (w *paperSuite) check(j *job) error {
	var errs []error
	var texts []string
	for _, e := range paperExperiments() {
		texts = append(texts, w.rendered[e.ID])
	}
	j.digest = digestOf(texts...)
	for _, in := range j.inputs {
		errs = append(errs, checkEmuOutput(j, in))
	}
	return errors.Join(errs...)
}

// checkEmuOutput runs a kernel on the functional emulator and compares its
// output with the workload's golden reimplementation.
func checkEmuOutput(j *job, in input) error {
	want, err := golden(in.bench, in.scale)
	if err != nil {
		return err
	}
	cpu := emu.New(in.prog)
	sp := j.tr.start("emu.CPU.Run")
	_, err = cpu.Run(0)
	sp.end("insts", cpu.InstCount)
	if err != nil {
		return fmt.Errorf("%s: emu: %w", in.bench, err)
	}
	if got := cpu.Output.String(); got != want {
		return fmt.Errorf("%s: emu output %q, golden %q", in.bench, got, want)
	}
	return nil
}

// cellCounter tallies harness.Runner.OnResult callbacks, which arrive
// concurrently from the sweep workers.
type cellCounter struct {
	mu sync.Mutex
	n  cellCounts
}

type cellCounts struct {
	cells, sims int
	cycles      uint64
}

func (c *cellCounter) observe(_ int, res harness.SweepResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n.cells++
	if res.Attempts > 0 { // Attempts == 0 is a cache hit
		c.n.sims++
		c.n.cycles += res.Stats.Cycles
	}
}

func (c *cellCounter) snapshot() cellCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (a cellCounts) minus(b cellCounts) cellCounts {
	return cellCounts{cells: a.cells - b.cells, sims: a.sims - b.sims, cycles: a.cycles - b.cycles}
}

// sampledGCC is the paper-scale sampled run: gcc under IR through
// harness.RunSampled with the intervals fanned over two workers.
type sampledGCC struct {
	size size
	sum  *sample.Summary
}

func (w *sampledGCC) setup(j *job) error {
	_, err := j.load("gcc", core.IRChoice(false))
	return err
}

func (w *sampledGCC) run(j *job) error {
	r := harness.NewRunner()
	r.Scale, r.Parallelism = w.size.scale, 2
	var c cellCounter
	r.OnResult = c.observe
	sp := j.tr.start("harness.RunSampled")
	sum, err := r.RunSampled(context.Background(), "gcc", j.inputs[0].cfg, w.size.plan)
	n := c.snapshot()
	sp.end("cells", n.cells, "simulations", n.sims)
	j.ops = max(n.cells, 1)
	if err != nil {
		return err
	}
	w.sum, j.simCycles = sum, float64(sum.Stats.Cycles)
	return nil
}

func (w *sampledGCC) check(j *job) error {
	want, err := golden("gcc", w.size.scale)
	if err != nil {
		return err
	}
	exit, err := goldenExit(want)
	if err != nil {
		return err
	}
	// A sparse plan cannot reassemble the program's output (Summary.Output
	// is empty); the traced run's replay compares the fast-forward output
	// with the golden one instead.
	if !w.sum.Halted || w.sum.ExitCode != exit {
		return fmt.Errorf("sampled gcc: halted %v exit %d, golden exit %d", w.sum.Halted, w.sum.ExitCode, exit)
	}
	j.digest = digestOf(fmt.Sprintf("%+v", w.sum.Stats), strconv.Itoa(w.sum.Intervals))
	j.wantSampled = w.sum
	return nil
}

// stallSweep runs the chase kernel under three techniques at two D-cache
// miss latencies on one machine: core.New for the first cell, Reset after.
type stallSweep struct {
	size  size
	order []int         // canonical cell indexes in run order
	cells []core.Config // in run order
	outs  map[int]string
	stats map[int]core.Stats
}

// stallCells are the six cells in canonical order.
func stallCells() []core.Config {
	var out []core.Config
	for _, lat := range []int{30, 60} {
		for _, c := range []core.Config{core.DefaultConfig(), core.IRChoice(false), core.VPChoice(vp.Magic, core.SB, core.ME, 1)} {
			c.DCache.MissLatency = lat
			out = append(out, c)
		}
	}
	return out
}

func (w *stallSweep) setup(j *job) error {
	all := stallCells()
	if _, err := j.load("chase", all[len(all)-3]); err != nil {
		return err
	}
	w.order = order(j.seed, j.rep, w.size.cells)
	for _, i := range w.order {
		w.cells = append(w.cells, all[i])
	}
	return nil
}

func (w *stallSweep) run(j *job) error {
	w.outs, w.stats = make(map[int]string), make(map[int]core.Stats)
	j.ops = len(w.cells)
	var m *core.Machine
	for k, cfg := range w.cells {
		var err error
		if m == nil {
			sp := j.tr.start("core.New")
			m, err = core.New(j.inputs[0].prog, cfg, 0)
			sp.end(oracleAttrs(m)...)
		} else {
			sp := j.tr.start("core.Reset")
			err = m.Reset(cfg)
			sp.end()
		}
		if err == nil {
			sp := j.tr.start("core.Run")
			err = m.Run(0)
			sp.end(runAttrs(m)...)
		}
		if err != nil {
			return fmt.Errorf("cell %s: %w", cfg.Name(), err)
		}
		s := m.Stats()
		j.simCycles += float64(s.Cycles)
		w.outs[w.order[k]], w.stats[w.order[k]] = m.Output(), s
	}
	return nil
}

func (w *stallSweep) check(j *job) error {
	want, err := golden("chase", w.size.scale)
	if err != nil {
		return err
	}
	var errs []error
	var parts []string
	for i := 0; i < w.size.cells; i++ {
		if got := w.outs[i]; got != want {
			errs = append(errs, fmt.Errorf("chase cell %d: output %q, golden %q", i, got, want))
		}
		parts = append(parts, fmt.Sprintf("%+v", w.stats[i]))
	}
	j.digest = digestOf(parts...)
	return errors.Join(errs...)
}

// longBase is one whole non-sampled run of gcc on the base machine.
type longBase struct {
	size size
	m    *core.Machine
}

func (w *longBase) setup(j *job) error {
	_, err := j.load("gcc", core.DefaultConfig())
	return err
}

func (w *longBase) run(j *job) error {
	j.ops = 1
	sp := j.tr.start("core.New")
	m, err := core.New(j.inputs[0].prog, j.inputs[0].cfg, 0)
	sp.end(oracleAttrs(m)...)
	if err != nil {
		return err
	}
	sp = j.tr.start("core.Run")
	err = m.Run(0)
	sp.end(runAttrs(m)...)
	w.m = m
	j.simCycles = float64(m.Stats().Cycles)
	return err
}

func (w *longBase) check(j *job) error {
	want, err := golden("gcc", w.size.scale)
	if err != nil {
		return err
	}
	exit, err := goldenExit(want)
	if err != nil {
		return err
	}
	if got := w.m.Output(); got != want || w.m.ExitCode() != exit {
		return fmt.Errorf("gcc: output %q exit %d, golden %q exit %d", got, w.m.ExitCode(), want, exit)
	}
	j.digest = digestOf(fmt.Sprintf("%+v", w.m.Stats()))
	return nil
}
