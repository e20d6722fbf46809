package main

import (
	"context"
	"errors"
	"fmt"
	"time"
	"unsafe"

	"github.com/vpir-sim/vpir/internal/bpred"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/redundancy"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/vp"
)

// runProbes calls each layer's public functions on the workload's own
// programs, each call under a span. It runs in traced children only, after
// the workload span has closed, so it never adds to the workload's time.
func runProbes(j *job, harnessProbe bool) error {
	var errs []error
	if harnessProbe {
		errs = append(errs, probeHarness(j))
	}
	for _, in := range j.inputs {
		errs = append(errs,
			probeEmu(j, in),
			probeStream(j, in),
			probeCore(j, in),
			probeRedundancy(j, in),
			probeSample(j, in))
	}
	return errors.Join(errs...)
}

// families are the four paper machine families the core probe runs, on
// the D-cache the workload's own machine uses.
func families(dcache mem.CacheConfig) []core.Config {
	cfgs := []core.Config{
		core.DefaultConfig(),
		core.IRChoice(false),
		core.VPChoice(vp.Magic, core.SB, core.ME, 0),
		core.VPChoice(vp.LVP, core.SB, core.ME, 0),
	}
	for i := range cfgs {
		cfgs[i].DCache = dcache
	}
	return cfgs
}

// probeHarness drives the workload's programs through a harness.Runner,
// for the workloads that do not use one themselves: one sweep over the
// four families, the same sweep again (all cache hits), and the
// redundancy study.
func probeHarness(j *job) error {
	r := harness.NewRunner()
	r.Scale, r.MaxInsts, r.Parallelism = j.size.scale, j.size.probeInsts, 2
	var c cellCounter
	r.OnResult = c.observe
	var cells []harness.SweepCell
	for _, in := range j.inputs {
		for _, cfg := range families(in.cfg.DCache) {
			cells = append(cells, harness.SweepCell{Bench: in.bench, Cfg: cfg})
		}
	}
	var errs []error
	for pass := 0; pass < 2; pass++ {
		before := c.snapshot()
		sp := j.tr.start("harness.Sweep")
		results := r.Sweep(context.Background(), cells)
		d := c.snapshot().minus(before)
		sp.end("cells", d.cells, "simulations", d.sims)
		for _, res := range results {
			if res.Err != nil {
				errs = append(errs, fmt.Errorf("harness probe %s %s: %w", res.Bench, res.Cfg.Name(), res.Err))
			}
		}
	}
	for _, in := range j.inputs {
		sp := j.tr.start("harness.Redundancy")
		_, err := r.Redundancy(in.bench)
		sp.end()
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// probeEmu times the functional emulator alone and with trace collection.
func probeEmu(j *job, in input) error {
	cpu := emu.New(in.prog)
	sp := j.tr.start("emu.CPU.Run")
	_, err := cpu.Run(j.size.emuInsts)
	sp.end("insts", cpu.InstCount)
	if err != nil {
		return fmt.Errorf("%s: emu probe: %w", in.bench, err)
	}
	sp = j.tr.start("emu.CollectTrace")
	log, err := emu.CollectTrace(emu.New(in.prog), j.size.collectInsts)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s: collect probe: %w", in.bench, err)
	}
	sp.end(logAttrs(log)...)
	return nil
}

// oracleAttrs records the size of a machine's whole-program oracle on the
// span of the core.New call that built it.
func oracleAttrs(m *core.Machine) []any {
	if m == nil {
		return nil
	}
	return logAttrs(m.Oracle())
}

func logAttrs(l *emu.TraceLog) []any {
	bytes := cap(l.PC)*int(unsafe.Sizeof(uint32(0))) + cap(l.Result)*int(unsafe.Sizeof(isa.Word(0))) +
		cap(l.Addr)*int(unsafe.Sizeof(uint32(0))) + cap(l.Taken)*int(unsafe.Sizeof(false))
	return []any{"insts", l.Len(), "oracle_bytes", bytes}
}

// probeCore builds a machine once and runs every family on it.
func probeCore(j *job, in input) error {
	fams := families(in.cfg.DCache)
	sp := j.tr.start("core.New")
	m, err := core.New(in.prog, fams[0], j.size.probeInsts)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: core probe: %w", in.bench, err)
	}
	for _, cfg := range fams {
		sp := j.tr.start("core.Reset")
		err := m.Reset(cfg)
		sp.end()
		if err == nil {
			sp = j.tr.start("core.Run")
			err = m.Run(0)
			sp.end(runAttrs(m)...)
		}
		if err != nil {
			return fmt.Errorf("%s: core probe %s: %w", in.bench, cfg.Name(), err)
		}
	}
	return nil
}

func probeRedundancy(j *job, in input) error {
	sp := j.tr.start("redundancy.Analyze")
	res, err := redundancy.Analyze(in.prog, redundancy.DefaultConfig(), j.size.emuInsts)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s: redundancy probe: %w", in.bench, err)
	}
	sp.end("results", res.Total)
	return nil
}

// probeSample replays the workload's sampling plan serially through the
// sample package's public calls, the way harness.RunSampled composes them.
// The fast-forward runs the whole program, so its output is checked against
// the golden one; for sampled-gcc the stitched Stats must also equal the
// ones harness.RunSampled produced in the timed run.
func probeSample(j *job, in input) error {
	sp := j.tr.start("sample.FastForward")
	ff, err := sample.FastForward(in.prog, in.cfg, j.size.plan, 0)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s: fast-forward: %w", in.bench, err)
	}
	ckBytes := 0
	for _, ck := range ff.Checkpoints {
		ckBytes += len(ck.State.Pages) * int(unsafe.Sizeof(ck.State.Pages[0]))
	}
	sp.end("insts", ff.TotalInsts, "checkpoints", len(ff.Checkpoints), "checkpoint_bytes", ckBytes)

	ivs := make([]sample.IntervalResult, len(ff.Checkpoints))
	var m *core.Machine
	for k := range ff.Checkpoints {
		ck, warm, measured, err := ff.IntervalSpec(k)
		if err != nil {
			return err
		}
		sp := j.tr.start("sample.IntervalOracle")
		oracle, err := sample.IntervalOracle(in.prog, ck, warm+measured)
		sp.end()
		if err != nil {
			return err
		}
		if m == nil {
			sp = j.tr.start("core.NewRestored")
			m, err = core.NewRestored(in.prog, in.cfg, ck.State, oracle)
		} else {
			sp = j.tr.start("core.ResetTo")
			err = m.ResetTo(in.cfg, ck.State, oracle)
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: restore interval %d: %w", in.bench, k, err)
		}
		sp = j.tr.start("sample.DriveInterval")
		ivs[k], err = sample.DriveInterval(context.Background(), m, ck, warm)
		sp.end("cycles", ivs[k].Stats.Cycles)
		if err != nil {
			return fmt.Errorf("%s: interval %d: %w", in.bench, k, err)
		}
	}
	sp = j.tr.start("sample.Stitch")
	sum, err := sample.Stitch(ff, ivs)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s: stitch: %w", in.bench, err)
	}
	sp.end("sampled", sum.SampledInsts, "total", sum.TotalInsts)

	want, err := golden(in.bench, in.scale)
	if err != nil {
		return err
	}
	if ff.Output != want {
		return fmt.Errorf("%s: fast-forward output %q, golden %q", in.bench, ff.Output, want)
	}
	if j.wantSampled != nil && sum.Stats != j.wantSampled.Stats {
		return fmt.Errorf("%s: serial replay stitched %+v, harness.RunSampled %+v", in.bench, sum.Stats, j.wantSampled.Stats)
	}
	return nil
}

// rec is one retired instruction of the recorded stream.
type rec struct {
	pc           uint32
	in           *isa.Inst
	s1, s2, dest isa.Word
	addr         uint32
	taken        bool
}

// record runs the program functionally and keeps its first n retirements,
// so the hook probes below time the hooks and not the emulator.
func record(p *emu.CPU, n uint64) ([]rec, error) {
	recs := make([]rec, 0, n)
	p.TraceFn = func(t *emu.Trace) {
		recs = append(recs, rec{pc: t.PC, in: t.Inst, s1: t.Src1Val, s2: t.Src2Val, dest: t.DestVal, addr: t.Addr, taken: t.Taken})
	}
	_, err := p.Run(n)
	return recs, err
}

// clock times single calls. A clock read costs about as much as the calls
// being timed, so each loop iteration also times one empty interval, and
// the mean empty interval, measured under the same conditions as the
// calls, is subtracted from every call's time.
type clock struct {
	epoch   time.Time
	emptyNS int64
	empties int
}

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// empty times one empty interval.
func (c *clock) empty() {
	t0 := c.now()
	c.emptyNS += c.now() - t0
	c.empties++
}

// timed accumulates the raw time of a number of calls.
type timed struct {
	ns    int64
	calls int
}

func (t *timed) add(t0, t1 int64) {
	t.ns += t1 - t0
	t.calls++
}

// net is t's time less one mean empty interval per call.
func (c *clock) net(t timed) float64 {
	return float64(t.ns) - float64(t.calls)*ratio(float64(c.emptyNS), float64(c.empties))
}

// probeStream records the first probeInsts instructions of the program and
// drives fresh reuse, value-prediction, branch-prediction and D-cache
// structures with them.
func probeStream(j *job, in input) error {
	recs, err := record(emu.New(in.prog), j.size.probeInsts)
	if err != nil {
		return fmt.Errorf("%s: record stream: %w", in.bench, err)
	}
	probeReuse(j, recs)
	for _, s := range []vp.Scheme{vp.Magic, vp.LVP} {
		probeVP(j, recs, s)
	}
	probeBpred(j, recs)
	probeDCache(j, recs, in.cfg.DCache)
	return nil
}

func probeReuse(j *job, recs []rec) {
	b := reuse.New(reuse.DefaultConfig())
	var test, insert, inval timed
	c := newClock()
	sp := j.tr.start("reuse.Buffer")
	for i := range recs {
		r := &recs[i]
		c.empty()
		op1 := reuse.Operand{Ready: true, Val: r.s1, ReusedFrom: reuse.NoLink}
		op2 := reuse.Operand{Ready: true, Val: r.s2, ReusedFrom: reuse.NoLink}
		t0 := c.now()
		b.Test(r.pc, r.in, op1, op2)
		t1 := c.now()
		b.Insert(r.pc, r.in, r.s1, r.s2, r.dest, r.addr, reuse.NoLink, reuse.NoLink, false, false)
		t2 := c.now()
		test.add(t0, t1)
		insert.add(t1, t2)
		if r.in.Op.IsStore() {
			t0 := c.now()
			b.InvalidateStores(r.addr, emu.StoreWidth(r.in.Op))
			inval.add(t0, c.now())
		}
	}
	st := b.Stats()
	sp.end("test_ns", c.net(test), "test_calls", test.calls, "insert_ns", c.net(insert), "insert_calls", insert.calls,
		"invalidate_ns", c.net(inval), "invalidate_calls", inval.calls, "tests", st.Tests, "hits", st.Hits)
}

// producesValue mirrors which retirements train the value-prediction table.
func producesValue(in *isa.Inst) bool {
	return in.Dest != isa.NoReg && !in.Op.IsControl() && !in.Op.Serializes()
}

func probeVP(j *job, recs []rec, s vp.Scheme) {
	cfg := vp.DefaultConfig(s)
	t := vp.New(cfg)
	var predict, train timed
	correct := 0
	c := newClock()
	sp := j.tr.start("vp.Table")
	for i := range recs {
		r := &recs[i]
		if !producesValue(r.in) {
			continue
		}
		c.empty()
		t0 := c.now()
		v, ok := t.PredictAt(r.pc, r.dest, true, 0, cfg.ConfThreshold)
		t1 := c.now()
		t.Train(r.pc, r.dest, v, ok)
		t2 := c.now()
		predict.add(t0, t1)
		train.add(t1, t2)
		if ok && v == r.dest {
			correct++
		}
	}
	sp.end("scheme", family(core.VPChoice(s, core.SB, core.ME, 0)), "predict_ns", c.net(predict), "train_ns", c.net(train),
		"calls", predict.calls, "correct", correct)
}

func probeBpred(j *job, recs []rec) {
	p := bpred.New(bpred.DefaultConfig())
	var predict, update timed
	correct := 0
	c := newClock()
	sp := j.tr.start("bpred.Predictor")
	for i := range recs {
		r := &recs[i]
		if !r.in.Op.IsCondBranch() {
			continue
		}
		c.empty()
		hist := p.Hist()
		t0 := c.now()
		dir := p.PredictDir(r.pc)
		t1 := c.now()
		p.SpecUpdateHist(r.taken)
		p.UpdateDir(r.pc, hist, r.taken)
		t2 := c.now()
		predict.add(t0, t1)
		update.add(t1, t2)
		if dir == r.taken {
			correct++
		}
	}
	sp.end("predict_ns", c.net(predict), "update_ns", c.net(update), "calls", predict.calls, "correct", correct)
}

func probeDCache(j *job, recs []rec, cfg mem.CacheConfig) {
	dc := mem.NewCache(cfg)
	var access timed
	c := newClock()
	sp := j.tr.start("mem.Cache")
	for i := range recs {
		r := &recs[i]
		if !r.in.Op.IsMem() {
			continue
		}
		c.empty()
		t0 := c.now()
		dc.Access(r.addr)
		access.add(t0, c.now())
	}
	st := dc.Stats()
	sp.end("access_ns", c.net(access), "calls", access.calls, "misses", st.Misses)
}
