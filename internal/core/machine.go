package core

import (
	"bytes"

	"github.com/vpir-sim/vpir/internal/bpred"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
)

// wheelSize must exceed the longest possible event delay (fp sqrt 24 +
// cache miss 7 + verification 1 and headroom).
const wheelSize = 64

// fetched is one instruction in the fetch buffer.
type fetched struct {
	pc         uint32
	in         *isa.Inst
	predTaken  bool
	predNext   uint32
	fetchCycle uint64
	// Checkpoint material captured at fetch for checkpointed control
	// instructions (conditional branches and indirect jumps).
	needCkpt   bool
	bpState    bpred.State
	histAtPred uint32
}

// Machine is the timing simulator.
type Machine struct {
	cfg      Config
	prog     *prog.Program
	decoded  []isa.Inst
	maxInsts uint64 // New's instruction cap (0 = whole program)

	mem    *mem.Memory
	icache *mem.Cache
	dcache *mem.Cache
	bp     *bpred.Predictor
	vpt    *vp.Table // result predictions (nil unless Config.NeedsVPT)
	vpa    *vp.Table // address predictions (nil unless Config.NeedsVPA)
	rb     *reuse.Buffer
	oracle oracleWindow // the correct-path stream (see window.go)

	// tech is the active technique's integration into the cycle loop: the
	// decode-time reuse/predict arbitration, commit-time training, store
	// invalidation and stats contribution all dispatch through it (see
	// technique.go). Selected by buildStructures; stateless, so Reset's
	// determinism and zero-alloc contracts are unaffected.
	tech techOps

	cycle uint64
	seq   uint64

	regs      [isa.NumArchRegs]isa.Word
	createVec [isa.NumArchRegs]int32
	createSeq [isa.NumArchRegs]uint64

	rob      []robEntry
	robHead  int32
	robCount int32

	lsq      []lsqEntry
	lsqHead  int32
	lsqCount int32

	fetchPC       uint32
	fetchReady    uint64 // I-cache miss stall: no fetch before this cycle
	lastFetchLine uint32
	// fetchQ is a fixed-capacity ring of cfg.FetchQueue slots. Slots are
	// reused in place so the bpred.State RAS snapshot inside each keeps its
	// backing array across the whole run (no per-branch allocation).
	fetchQ     []fetched
	fetchHead  int32
	fetchCount int32

	traceCursor int64 // next correct-path trace index; < 0 on the wrong path
	unresolved  int
	serialize   int32 // ROB slot of a dispatched serializing op, -1 if none

	wheel [wheelSize][]event
	// eventMask has bit s set when wheel[s] may hold events: set on
	// schedule, cleared when the slot drains. Conservative (a slot holding
	// only squash-orphaned events keeps its bit until it drains), which is
	// the safe direction for the quiescence skipper (see skip.go).
	eventMask uint64
	finalQ    []int32 // entries whose finality must be re-examined this cycle
	wbCarry   []event // completions deferred by result-bus contention
	// issueQ holds the instructions that may be able to start an execution,
	// fed by dependency-driven wakeups (dispatch, operand broadcast,
	// finalization, re-execution demands) instead of a per-cycle scan of the
	// whole ROB. Entries blocked on conditions with no wake event (FU/port
	// denial, store disambiguation) stay queued and retry next cycle.
	issueQ []issueRef
	// evScratch is the per-cycle staging buffer processEvents drains into,
	// so wheel slots and wbCarry can be truncated (capacity kept) instead of
	// reallocated every cycle.
	evScratch []event

	// ckptFree recycles branch checkpoints (and the RAS snapshot slices
	// inside them). Live checkpoints never exceed cfg.MaxBranches, so
	// ckptAllocs — the number of checkpoints ever allocated — is bounded by
	// it for the life of the machine, across Reset.
	ckptFree   []*ckpt
	ckptAllocs int

	// Functional unit pools (Table 1).
	aluPool *fuPool // 8 integer ALUs
	lsPool  *fuPool // 2 load/store units
	imdPool *fuPool // 1 integer multiply/divide unit
	fpaPool *fuPool // 4 FP adders
	fpmPool *fuPool // 1 FP multiply/divide/sqrt unit

	dcPortsUsed     int  // D-cache ports consumed this cycle
	fetchRedirected bool // a squash redirected fetch during this stage pass

	commitCursor int64 // committed instruction count == next trace index

	halted   bool
	exitCode int
	output   bytes.Buffer

	stats Stats

	// lastRetire is the cycle of the most recent retirement (or machine
	// start); the deadlock arm of the watchdog measures against it.
	lastRetire uint64
	// activeIters counts the executed non-quiescent cycles of the run;
	// itersAtRetire snapshots it at each retirement. The livelock arm of
	// the watchdog measures lack of retirement progress across *active*
	// iterations — never across skipped or idle cycles — so a legitimate
	// long stall (serialized miss chains) cannot trip it (see skip.go).
	activeIters   uint64
	itersAtRetire uint64

	// skipIdleCycles enables the quiescence-aware cycle skipper; see
	// skip.go. Defaults from the VPIR_NO_SKIP environment escape hatch,
	// per-machine override via SetCycleSkipping. cyclesSkipped counts the
	// cycles fast-forwarded rather than executed (kept out of Stats so the
	// skipping and legacy loops stay bit-identical).
	skipIdleCycles bool
	cyclesSkipped  uint64

	// cycleHooks run at the top of every cycle; fault-injection campaigns
	// use them to corrupt microarchitectural state mid-run.
	cycleHooks []func(cycle uint64)

	// obs, when non-nil, is the observability layer: inline metrics,
	// structured events and the interval sampler (see obs.go).
	obs *Observer

	// debugCommit, when non-nil, observes each entry at commit (test hook).
	debugCommit func(e *robEntry)
	// tracer, when non-nil, records per-instruction pipeline events.
	tracer *PipeTracer
	// debugReuse, when non-nil, observes each reuse hit at decode (test hook).
	debugReuse func(e *robEntry)
}

// New builds a machine for the program, simulating at most maxInsts
// instructions (0 = to completion). The correct-path oracle is streamed by
// a functional emulator that runs ahead of the timing core only as far as
// the in-flight window (see window.go); the timing simulation reproduces
// exactly that instruction stream and is checked against it at commit.
// New produces the first instruction, so an empty program or a fault on
// the first instruction fails here; a fault later in the program is
// returned by Run once every instruction before it has committed.
func New(p *prog.Program, cfg Config, maxInsts uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		prog:     p,
		decoded:  p.Decoded(),
		maxInsts: maxInsts,
		mem:      mem.NewMemory(),
	}
	m.buildStructures(cfg)
	m.resetRunState()
	m.oracle.stream(m)
	if err := m.oracle.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rewinds the machine to its pre-Run state under a (possibly
// different) configuration, reusing every microarchitectural structure
// whose geometry is unchanged: the ROB and LSQ arrays, the event wheel and
// its per-slot capacity, the checkpoint pool, the fetch ring (including the
// RAS snapshot storage in each slot), the oracle window, the
// VPT/RB/cache/predictor tables, and the sparse memory pages. The program
// and the instruction cap given to New are kept (a machine NewRestored
// built has no cap), and the oracle emulator is rewound in place to the
// program entry.
//
// Determinism contract: a Reset machine produces bit-identical Stats,
// Output and ExitCode to a machine built fresh by New with the same
// program and configuration (TestResetDeterminism enforces this). Attached
// observers, pipe tracers and cycle hooks are per-run and are detached.
func (m *Machine) Reset(cfg Config) error {
	if err := m.reset(cfg); err != nil {
		return err
	}
	m.oracle.stream(m)
	return m.oracle.start()
}

// reset is Reset without the oracle: ResetTo supplies its own producer.
func (m *Machine) reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Return in-flight branch checkpoints to the pool before the ROB is
	// cleared, so the pool's high-water bound survives machine reuse.
	for i := range m.rob {
		if e := &m.rob[i]; e.valid && e.checkpoint != nil {
			m.freeCkpt(e.checkpoint)
			e.checkpoint = nil
		}
	}
	m.buildStructures(cfg)
	m.cfg = cfg
	m.resetRunState()
	return nil
}

// buildStructures (re)creates the configuration-dependent storage. On a
// fresh machine everything is allocated; on Reset, structures whose
// configured geometry matches the previous run are cleared in place.
func (m *Machine) buildStructures(cfg Config) {
	if m.icache != nil && m.icache.Config() == cfg.ICache {
		m.icache.Reset()
	} else {
		m.icache = mem.NewCache(cfg.ICache)
	}
	if m.dcache != nil && m.dcache.Config() == cfg.DCache {
		m.dcache.Reset()
	} else {
		m.dcache = mem.NewCache(cfg.DCache)
	}
	if m.bp != nil && m.cfg.Bpred == cfg.Bpred {
		m.bp.Reset()
	} else {
		m.bp = bpred.New(cfg.Bpred)
	}

	m.tech = techOpsFor(cfg)
	m.vpt = resetTable(m.vpt, cfg.VP.ResultTable, cfg.NeedsVPT())
	m.vpa = resetTable(m.vpa, cfg.VP.AddrTable, cfg.NeedsVPA())
	switch {
	case !cfg.NeedsRB():
		m.rb = nil
	case m.rb != nil:
		m.rb.Reset(cfg.IR.Buffer) // reuses storage when the geometry matches
	default:
		m.rb = reuse.New(cfg.IR.Buffer)
	}

	if len(m.rob) == cfg.ROBSize {
		for i := range m.rob {
			cons := m.rob[i].consumers[:0]
			m.rob[i] = robEntry{consumers: cons}
		}
	} else {
		m.rob = make([]robEntry, cfg.ROBSize)
	}
	if len(m.lsq) == cfg.LSQSize {
		for i := range m.lsq {
			m.lsq[i] = lsqEntry{}
		}
	} else {
		m.lsq = make([]lsqEntry, cfg.LSQSize)
	}
	if len(m.fetchQ) != cfg.FetchQueue {
		m.fetchQ = make([]fetched, cfg.FetchQueue)
	}
	m.oracle.size(cfg.ROBSize)

	m.aluPool = m.aluPool.reset(cfg.IntALUs)
	m.lsPool = m.lsPool.reset(cfg.MemPorts)
	m.imdPool = m.imdPool.reset(1)
	m.fpaPool = m.fpaPool.reset(cfg.FPAdders)
	m.fpmPool = m.fpmPool.reset(1)
}

// resetTable reuses, rebuilds or drops a value-prediction table for the
// next run.
func resetTable(t *vp.Table, cfg vp.Config, need bool) *vp.Table {
	if !need {
		return nil
	}
	if t != nil {
		t.Reset(cfg) // reuses storage when the geometry matches
		return t
	}
	return vp.New(cfg)
}

// resetRunState rewinds all per-run machine state: architectural registers,
// rename state, cursors, counters, queues and the memory image. Structures
// sized by the configuration must already be in place (buildStructures).
func (m *Machine) resetRunState() {
	m.mem.Reset()
	m.mem.LoadProgram(m.prog)

	m.cycle = 0
	m.seq = 0
	m.regs = [isa.NumArchRegs]isa.Word{}
	m.regs[isa.RegSP] = isa.Word(prog.StackTop)
	for i := range m.createVec {
		m.createVec[i] = -1
	}
	m.createSeq = [isa.NumArchRegs]uint64{}

	m.robHead, m.robCount = 0, 0
	m.lsqHead, m.lsqCount = 0, 0

	m.fetchPC = m.prog.Entry
	m.fetchReady = 0
	m.lastFetchLine = ^uint32(0)
	m.fetchHead, m.fetchCount = 0, 0
	m.traceCursor = 0
	m.unresolved = 0
	m.serialize = -1

	for i := range m.wheel {
		m.wheel[i] = m.wheel[i][:0]
	}
	m.eventMask = 0
	m.finalQ = m.finalQ[:0]
	m.wbCarry = m.wbCarry[:0]
	m.issueQ = m.issueQ[:0]

	m.dcPortsUsed = 0
	m.fetchRedirected = false
	m.commitCursor = 0
	m.halted = false
	m.exitCode = 0
	m.output.Reset()
	m.stats = Stats{}
	m.lastRetire = 0
	m.activeIters = 0
	m.itersAtRetire = 0
	m.skipIdleCycles = !noSkipDefault
	m.cyclesSkipped = 0

	// Per-run attachments: hooks, observers and tracers do not survive a
	// Reset (fault campaigns and metrics exports attach per run).
	m.cycleHooks = nil
	m.obs = nil
	m.tracer = nil
	m.debugCommit = nil
	m.debugReuse = nil
}

// newCkpt takes a checkpoint from the free list (or allocates one). The
// caller overwrites every field, so recycled contents never leak between
// branches.
func (m *Machine) newCkpt() *ckpt {
	if n := len(m.ckptFree); n > 0 {
		cp := m.ckptFree[n-1]
		m.ckptFree = m.ckptFree[:n-1]
		return cp
	}
	m.ckptAllocs++
	return &ckpt{}
}

// freeCkpt returns a checkpoint (and its RAS snapshot storage) to the pool.
func (m *Machine) freeCkpt(cp *ckpt) {
	m.ckptFree = append(m.ckptFree, cp)
}

// vpActive reports whether value prediction is integrated (TechVP or
// TechHybrid); the SB/NSB and ME/NME policy checks key off this.
func (m *Machine) vpActive() bool { return m.vpt != nil }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns a copy of the statistics gathered so far.
func (m *Machine) Stats() Stats {
	s := m.stats
	is, ds := m.icache.Stats(), m.dcache.Stats()
	s.ICacheAccesses, s.ICacheMisses = is.Accesses, is.Misses
	s.DCacheAccesses, s.DCacheMisses = ds.Accesses, ds.Misses
	m.tech.contributeStats(m, &s)
	return s
}

// Output returns everything the program printed so far.
func (m *Machine) Output() string { return m.output.String() }

// ExitCode returns the program's exit code (valid once halted).
func (m *Machine) ExitCode() int { return m.exitCode }

// Halted reports whether the simulated program has finished.
func (m *Machine) Halted() bool { return m.halted }

// Oracle exposes the oracle window as a TraceLog: the columns are the
// window's ring (trace index i sits at i modulo their length, and only the
// in-flight range is live), and Output, ExitCode and Halted are the
// producer's — for a streamed machine, as far as the emulator has run.
func (m *Machine) Oracle() *emu.TraceLog { return m.oracle.traceLog() }

// Cycle returns the current machine cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// The component accessors below expose the microarchitectural structures so
// that fault-injection campaigns (internal/faultinject) can corrupt their
// state mid-run. They return nil when the configuration does not
// instantiate the structure.

// VPT returns the result value-prediction table (nil unless VP is active).
func (m *Machine) VPT() *vp.Table { return m.vpt }

// VPA returns the address value-prediction table (nil unless VP predicts
// addresses).
func (m *Machine) VPA() *vp.Table { return m.vpa }

// RB returns the reuse buffer (nil unless IR is active).
func (m *Machine) RB() *reuse.Buffer { return m.rb }

// BranchPredictor returns the front-end branch prediction unit.
func (m *Machine) BranchPredictor() *bpred.Predictor { return m.bp }

// Caches returns the instruction and data caches.
func (m *Machine) Caches() (icache, dcache *mem.Cache) { return m.icache, m.dcache }

// OnCycle registers a hook invoked at the top of every cycle, before any
// pipeline stage runs. Hooks must not retain the machine across Run calls;
// they exist for deterministic fault injection and instrumentation.
func (m *Machine) OnCycle(fn func(cycle uint64)) {
	m.cycleHooks = append(m.cycleHooks, fn)
}

// noLimit is the Run cycle budget of an unbounded call.
const noLimit = ^uint64(0)

// Run simulates up to maxCycles further cycles (0 = no limit), stopping
// early when the program halts. It returns an error on an internal
// consistency failure — a *SimError divergence from the functional oracle,
// or a *SimError watchdog trip when the pipeline stops making retirement
// progress (livelock/deadlock detection) — or, wrapping *emu.Fault, when
// the program's correct path faults after every instruction before the
// fault has committed.
//
// Quiescent cycles — cycles in which no stage can change any state — are
// fast-forwarded in bulk instead of executed one at a time (see skip.go);
// results are bit-identical to the legacy loop, which VPIR_NO_SKIP=1 or
// SetCycleSkipping(false) forces. Fault-injection cycleHooks must observe
// every cycle, so any registered hook disables skipping for the run.
//
// The watchdog (Config.Watchdog, 0 disables) has two arms, identical under
// both loops: a livelock trips when more than Watchdog *active* iterations
// pass without a retirement (a wedged instruction retrying every cycle),
// and a hard deadlock — quiescent with no event pending and fetch on a
// dead path — trips when Watchdog cycles pass without a retirement.
func (m *Machine) Run(maxCycles uint64) error {
	limit := noLimit
	if maxCycles > 0 {
		limit = m.cycle + maxCycles
	}
	wd := m.cfg.Watchdog
	skip := m.skipIdleCycles && len(m.cycleHooks) == 0
	for !m.halted {
		if m.cycle >= limit {
			return nil
		}
		if m.quiescent() {
			deadlocked := m.eventMask == 0 && m.cycle >= m.fetchReady
			if skip && m.skipIdle(limit, deadlocked) {
				continue
			}
			if err := m.step(); err != nil {
				m.flushObs()
				return err
			}
			if m.obs != nil {
				m.maybeSample()
			}
			if wd > 0 && deadlocked && m.cycle-m.lastRetire > wd {
				err := m.watchdogError(m.cycle - m.lastRetire)
				m.flushObs()
				return err
			}
			continue
		}
		m.activeIters++
		if err := m.step(); err != nil {
			m.flushObs()
			return err
		}
		if m.obs != nil {
			m.maybeSample()
		}
		if wd > 0 && m.activeIters-m.itersAtRetire > wd {
			err := m.watchdogError(m.cycle - m.lastRetire)
			m.flushObs()
			return err
		}
	}
	m.flushObs()
	return nil
}

// step advances the machine one cycle. Stage order (events → commit →
// issue → decode → fetch) gives the same cycle timing as Figure 2 of the
// paper: a 1-cycle op issued in cycle c completes at the start of c+1,
// wakes dependents that can issue in c+1, and can commit in c+1.
func (m *Machine) step() error {
	m.stats.Cycles++
	m.dcPortsUsed = 0
	for _, h := range m.cycleHooks {
		h(m.cycle)
	}
	if err := m.processEvents(); err != nil {
		return err
	}
	if err := m.commit(); err != nil {
		return err
	}
	m.issue()
	if err := m.decode(); err != nil {
		return err
	}
	m.fetch()
	m.cycle++
	return nil
}

// --- small helpers shared by the stages ---

// wrap reduces the sum of two in-range ring cursors into [0, n). Ring
// sizes are not required to be powers of two, so a % here would compile to
// an integer divide — measurably hot in the LSQ scans and ring bumps.
func wrap(i, n int32) int32 {
	if i >= n {
		return i - n
	}
	return i
}

func (m *Machine) robIdx(offset int32) int32 {
	return (m.robHead + offset) & int32(m.cfg.ROBSize-1)
}

// forEachROB iterates oldest to youngest, stopping early if fn returns false.
func (m *Machine) forEachROB(fn func(idx int32, e *robEntry) bool) {
	for i := int32(0); i < m.robCount; i++ {
		idx := m.robIdx(i)
		if !fn(idx, &m.rob[idx]) {
			return
		}
	}
}

func (m *Machine) schedule(delay uint64, ev event) {
	if delay == 0 {
		delay = 1
	}
	slot := (m.cycle + delay) % wheelSize
	m.wheel[slot] = append(m.wheel[slot], ev)
	m.eventMask |= 1 << slot
}

// scheduleThisCycle runs an event during the current cycle's event
// processing; used for 0-cycle verification.
func (m *Machine) liveEntry(ev event) *robEntry {
	e := &m.rob[ev.idx]
	if !e.valid || e.seq != ev.seq {
		return nil
	}
	return e
}

func (m *Machine) instAt(pc uint32) *isa.Inst {
	if !m.prog.InText(pc) || pc&3 != 0 {
		return nil
	}
	return &m.decoded[(pc-prog.TextBase)/4]
}

// divergence builds the structured error used when the timing core disagrees
// with the functional oracle.
func (m *Machine) divergence(e *robEntry, what string, got, want any) error {
	if m.obs != nil {
		m.obs.faultEvent(m.cycle, e.pc, e.seq, what)
	}
	return &SimError{
		Kind:         ErrDivergence,
		Config:       m.cfg.Name(),
		Cycle:        m.cycle,
		PC:           e.pc,
		Seq:          e.seq,
		TraceIdx:     e.traceIdx,
		SrcLine:      m.prog.SrcLines[e.pc],
		Field:        what,
		Got:          got,
		Want:         want,
		ROBOccupancy: int(m.robCount),
		LSQOccupancy: int(m.lsqCount),
		FetchPC:      m.fetchPC,
	}
}
