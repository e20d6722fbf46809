package sample

import (
	"fmt"
	"runtime/debug"

	"github.com/vpir-sim/vpir/internal/bpred"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
)

// warmer maintains functionally-warmed microarchitectural structures during
// fast-forward. It observes the retired (and therefore correct-path)
// instruction stream and applies exactly the non-speculative updates the
// timing core applies at fetch and commit:
//
//   - I-cache: one access per line change, mirroring fetch's line tracking;
//   - gshare: UpdateDir with the pre-branch history, then the history shift —
//     on the correct path the speculative shift and the commit-time training
//     coincide;
//   - RAS/BTB: push on calls, pop on returns, BTB training on indirects;
//   - D-cache: one access per memory op;
//   - VPT/VPA: Train with the actual result/address (no prediction made,
//     so no confidence penalty);
//   - RB: Insert with the same buffered-result encoding the timing core's
//     issue stage produces, and InvalidateStores on every store.
//
// Every structure but the RB is warmed inline, on the emulator's goroutine.
// The RB is the costliest to warm (a set scan and an LRU victim search per
// instruction), so it lives on its own goroutine and the emulator hands it
// the encoded updates in batches; see rbWarmer.
//
// The RB encodings are correctness-critical, not just fidelity: a reuse hit
// skips execution unguarded, so a warm entry whose result deviates from what
// the timing core would have buffered diverges the architectural state at
// commit. The encodings (conditional branch → taken flag, JR/JALR → jump
// target, store → address only, load → loaded value, everything else → ALU
// result) mirror internal/core's issue stage field for field.
type warmer struct {
	bp       *bpred.Predictor
	ic, dc   *mem.Cache
	vpt, vpa *vp.Table
	rbq      *rbWarmer // nil without an RB

	lineBytes uint32
	lastLine  uint32
}

// newWarmer builds the warm structures the configuration instantiates; a
// base-config warmer carries no VPT/RB, so fast-forward pays only for what
// the timing run will restore. A warmer with an RB owns a goroutine until
// stop.
func newWarmer(cfg core.Config) *warmer {
	w := &warmer{
		bp:        bpred.New(cfg.Bpred),
		ic:        mem.NewCache(cfg.ICache),
		dc:        mem.NewCache(cfg.DCache),
		lineBytes: uint32(cfg.ICache.LineBytes),
		lastLine:  ^uint32(0),
	}
	if cfg.NeedsVPT() {
		w.vpt = vp.New(cfg.VP.ResultTable)
	}
	if cfg.NeedsVPA() {
		w.vpa = vp.New(cfg.VP.AddrTable)
	}
	if cfg.NeedsRB() {
		w.rbq = startRBWarmer(cfg.IR.Buffer)
	}
	return w
}

// observe applies one retired instruction's warm updates; it is installed as
// the fast-forward CPU's TraceFn.
func (w *warmer) observe(t *emu.Trace) {
	pc, in := t.PC, t.Inst
	op := in.Op

	if line := pc / w.lineBytes; line != w.lastLine {
		w.ic.Access(pc)
		w.lastLine = line
	}

	switch {
	case op.IsCondBranch():
		hist := w.bp.Hist()
		w.bp.UpdateDir(pc, hist, t.Taken)
		w.bp.SpecUpdateHist(t.Taken)
	case op == isa.OpJAL:
		w.bp.PushRAS(pc + 4)
	case op == isa.OpJR:
		if in.Src1 == isa.RegRA {
			w.bp.PopRAS()
		}
		w.bp.UpdateBTB(pc, uint32(t.Src1Val))
	case op == isa.OpJALR:
		w.bp.UpdateBTB(pc, uint32(t.Src1Val))
		w.bp.PushRAS(pc + 4)
	}

	if op.IsMem() {
		w.dc.Access(t.Addr)
		if w.vpa != nil {
			w.vpa.Train(pc, isa.Word(t.Addr), 0, false)
		}
	}
	if w.vpt != nil && in.Dest != isa.NoReg && !op.IsControl() && !op.Serializes() {
		w.vpt.Train(pc, t.DestVal, 0, false)
	}

	if q := w.rbq; q != nil {
		var result isa.Word
		var addr uint32
		switch {
		case op.IsCondBranch():
			if t.Taken {
				result = 1
			}
		case op == isa.OpJR || op == isa.OpJALR:
			result = t.Src1Val // buffered result is the jump target, not the link
		case op.IsStore():
			addr = t.Addr // address-only entry; also the span InvalidateStores kills
		case op.IsLoad():
			result, addr = t.DestVal, t.Addr
		default:
			result = t.DestVal
		}
		q.push(pc, in, t.Src1Val, t.Src2Val, result, addr)
	}
}

// snapshotInto captures the warm state into a checkpoint's restore record.
// With an RB, st.RB is filled in by the RB goroutine once it has applied
// every update before this point, and the returned channel is closed then;
// without one the channel is nil and the record is complete on return.
func (w *warmer) snapshotInto(st *core.RestoreState) <-chan struct{} {
	st.Bpred = w.bp.Snapshot()
	st.ICache = w.ic.Snapshot()
	st.DCache = w.dc.Snapshot()
	if w.vpt != nil {
		st.VPT = w.vpt.Snapshot()
	}
	if w.vpa != nil {
		st.VPA = w.vpa.Snapshot()
	}
	if w.rbq != nil {
		return w.rbq.handOff(st)
	}
	return nil
}

// await blocks until rbDone, the channel snapshotInto returned for st, is
// closed (a nil channel means st is complete already). If the RB goroutine
// panicked first, st.RB never comes: await joins the goroutine and re-raises
// its panic.
func (w *warmer) await(st *core.RestoreState, rbDone <-chan struct{}) {
	if rbDone == nil {
		return
	}
	<-rbDone
	if st.RB == nil {
		w.stop()
	}
}

// stop joins the RB goroutine, if any, re-raising a panic it recovered. It
// is idempotent, so Stream can defer it on every path.
func (w *warmer) stop() {
	if q := w.rbq; q != nil {
		w.rbq = nil
		q.stop()
	}
}

const (
	// rbBatchLen is how many RB updates the emulator buffers before handing
	// them over, and rbBatches how many batches circulate between the two
	// goroutines: 4 × 4096 × 40 B ≈ 640 KB, allocated once per pass. The
	// emulator runs at most rbBatches batches ahead of the RB.
	rbBatchLen = 4096
	rbBatches  = 4
)

// rbRecord is one retired instruction's RB update, already encoded: the
// arguments of Insert, plus the store address InvalidateStores takes.
type rbRecord struct {
	pc, addr        uint32
	in              *isa.Inst
	src1, src2, res isa.Word
}

// rbBatch is a run of updates in retirement order. A batch tagged with a
// checkpoint's restore state ends at that checkpoint: the RB goroutine
// snapshots the buffer into st.RB after applying it, then closes done.
type rbBatch struct {
	n    int
	recs [rbBatchLen]rbRecord
	st   *core.RestoreState
	done chan struct{}
}

// rbWarmer warms the reuse buffer on its own goroutine, so a sampled IR
// run's fast-forward pays emulation and RB warming in parallel rather than
// in series. The emulator fills cur and sends it on the full channel; the
// goroutine applies each batch in order and returns it on the free channel.
// Both channels can hold every batch, so the goroutine never blocks on free
// and a batch is never allocated after start. Only the goroutine touches rb, and panicked, until
// done is closed.
type rbWarmer struct {
	cur        *rbBatch
	full, free chan *rbBatch
	done       chan struct{}

	rb       *reuse.Buffer
	panicked string // the recovered panic and its stack, "" if none
}

func startRBWarmer(cfg reuse.Config) *rbWarmer {
	q := &rbWarmer{
		cur:  new(rbBatch),
		full: make(chan *rbBatch, rbBatches),
		free: make(chan *rbBatch, rbBatches),
		done: make(chan struct{}),
		rb:   reuse.New(cfg),
	}
	for range rbBatches - 1 {
		q.free <- new(rbBatch)
	}
	go q.run()
	return q
}

// push appends one encoded update, handing the batch over once it is full.
func (q *rbWarmer) push(pc uint32, in *isa.Inst, src1, src2, res isa.Word, addr uint32) {
	b := q.cur
	b.recs[b.n] = rbRecord{pc: pc, addr: addr, in: in, src1: src1, src2: src2, res: res}
	b.n++
	if b.n == rbBatchLen {
		q.handOff(nil)
	}
}

// handOff sends the current batch, tagged with st (nil for a full batch),
// and takes a recycled one, waiting if the RB is rbBatches batches behind.
// For a tagged batch it returns the channel closed once st.RB is written
// (or the RB goroutine has panicked instead).
func (q *rbWarmer) handOff(st *core.RestoreState) <-chan struct{} {
	var done chan struct{}
	if st != nil {
		done = make(chan struct{})
	}
	q.cur.st, q.cur.done = st, done
	q.full <- q.cur
	q.cur = <-q.free
	return done
}

// run is the RB goroutine. After a panic it keeps recycling batches without
// applying them, so the emulator never waits on a batch that will not come
// back; stop re-raises the panic.
func (q *rbWarmer) run() {
	defer close(q.done)
	for b := range q.full {
		if q.panicked == "" {
			q.apply(b)
		}
		if b.done != nil {
			close(b.done)
		}
		b.n, b.st, b.done = 0, nil, nil
		q.free <- b
	}
}

func (q *rbWarmer) apply(b *rbBatch) {
	defer func() {
		if p := recover(); p != nil {
			q.panicked = fmt.Sprintf("%v\n\n%s", p, debug.Stack())
		}
	}()
	for i := range b.recs[:b.n] {
		r := &b.recs[i]
		// Insert rejects serializing ops and OpJ itself; dependence links are
		// a timing-window notion and stay absent under functional warming.
		q.rb.Insert(r.pc, r.in, r.src1, r.src2, r.res, r.addr, reuse.NoLink, reuse.NoLink, false, false)
		if r.in.Op.IsStore() {
			q.rb.InvalidateStores(r.addr, emu.StoreWidth(r.in.Op))
		}
	}
	if b.st != nil {
		b.st.RB = q.rb.Snapshot()
	}
}

// stop ends the batch stream and waits for the goroutine to apply what is
// queued and exit. Updates still in cur follow the last checkpoint and are
// dropped.
func (q *rbWarmer) stop() {
	close(q.full)
	<-q.done
	if q.panicked != "" {
		panic("sample: reuse-buffer warming: " + q.panicked)
	}
}
