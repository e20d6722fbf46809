package sample

import (
	"context"
	"fmt"
	"math"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/prog"
)

// ctxCheckInsts is how many instructions the pass retires between checks of
// its context, so a deadline or a cancellation stops it within 64 K
// instructions (a few milliseconds) wherever it is, the tail after the last
// checkpoint included.
const ctxCheckInsts = 1 << 16

// Stream executes the program once at functional speed with functional
// warming, capturing a checkpoint at each sampled interval's capture point
// (max(0, S_k − Warmup)), and hands each one to emit, in index order, as soon
// as it is complete: its warm state, RB snapshot included, is written, and
// the pass has retired past its Start, so its measured region is not empty.
// Checkpoints still waiting when the program ends are handed out then if
// Start < TotalInsts and dropped otherwise. maxInsts caps the dynamic
// instruction count like core.New's cap (0 = to completion).
//
// emit runs on the caller's goroutine, and the pass waits while it runs; an
// error from emit stops the pass and comes back as is. The pass checks ctx
// every ctxCheckInsts retired instructions and returns ctx's error, wrapped,
// once it is done. The returned FFResult carries the program totals and the
// header (Index, Start, At; State nil) of every checkpoint handed out: the
// pass keeps no checkpoint state once emit returns.
//
// With an RB, the RB is warmed on a second goroutine fed from this one (see
// rbWarmer), which Stream joins before it returns on every path, re-raising
// any panic it hit.
//
// The pass is deterministic: the same (program, cfg, plan, maxInsts) yields
// byte-identical checkpoints. The first checkpoint of any plan is captured
// at instruction 0 before any warming, so restoring it reproduces a cold
// machine exactly — that is what makes a one-interval plan bit-identical to
// a non-sampled run.
func Stream(ctx context.Context, p *prog.Program, cfg core.Config, plan Plan, maxInsts uint64, emit func(Checkpoint) error) (*FFResult, error) {
	plan = plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	cpu := emu.New(p)
	w := newWarmer(cfg)
	defer w.stop()
	cpu.TraceFn = w.observe

	ff := &FFResult{Plan: plan}
	// pending holds the captured checkpoints not yet handed out, oldest
	// first, each with the channel its RB snapshot is awaited on.
	type capturedCk struct {
		ck     Checkpoint
		rbDone <-chan struct{}
	}
	var pending []capturedCk
	// handOut emits every pending checkpoint whose Start is below end.
	handOut := func(end uint64) error {
		for len(pending) > 0 && pending[0].ck.Start < end {
			c := pending[0]
			pending[0] = capturedCk{}
			pending = pending[1:]
			w.await(c.ck.State, c.rbDone)
			ff.Checkpoints = append(ff.Checkpoints, Checkpoint{Index: c.ck.Index, Start: c.ck.Start, At: c.ck.At})
			if err := emit(c.ck); err != nil {
				return err
			}
		}
		return nil
	}
	// runTo advances the CPU to the absolute instruction count target, never
	// past the cap, stopping to check ctx and to hand out each pending
	// checkpoint once the pass retires past its Start.
	runTo := func(target uint64) error {
		if maxInsts > 0 && target > maxInsts {
			target = maxInsts
		}
		for cpu.InstCount < target && !cpu.Halted {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sample: fast-forward at instruction %d: %w", cpu.InstCount, err)
			}
			stop := min(target, cpu.InstCount+ctxCheckInsts)
			if len(pending) > 0 {
				stop = min(stop, pending[0].ck.Start+1)
			}
			if _, err := cpu.Run(stop - cpu.InstCount); err != nil {
				return err
			}
			if err := handOut(cpu.InstCount); err != nil {
				return err
			}
		}
		return nil
	}

	stride := plan.Interval * plan.Every
	for k := uint64(0); ; k++ {
		start := k * stride
		at := start - min(start, plan.Warmup)
		if maxInsts > 0 && start >= maxInsts {
			break
		}
		if err := runTo(at); err != nil {
			return nil, err
		}
		if cpu.InstCount < at || cpu.Halted {
			break // program ended before this interval begins
		}
		st, rbDone := capture(cpu, w)
		pending = append(pending, capturedCk{ck: Checkpoint{Index: int(k), Start: start, At: at, State: st}, rbDone: rbDone})
	}

	// Every capture is behind us: join the RB goroutine, then finish the
	// functional run (warming no longer needed) to learn the program totals
	// the stitcher scales to.
	w.stop()
	cpu.TraceFn = nil
	if err := runTo(math.MaxUint64); err != nil {
		return nil, err
	}
	ff.TotalInsts = cpu.InstCount
	ff.Halted = cpu.Halted
	ff.ExitCode = cpu.ExitCode
	ff.Output = cpu.Output.String()

	// What still waits has a measured region only if it starts before the
	// program's end; the rest raced the end and is dropped.
	if err := handOut(ff.TotalInsts); err != nil {
		return nil, err
	}
	if len(ff.Checkpoints) == 0 {
		return nil, fmt.Errorf("sample: program retired no instructions")
	}
	return ff, nil
}

// FastForward is Stream with every checkpoint kept: the returned FFResult
// holds each checkpoint's State. Sampled runs that can consume checkpoints
// as they come use Stream instead and hold only the ones in flight.
func FastForward(p *prog.Program, cfg core.Config, plan Plan, maxInsts uint64) (*FFResult, error) {
	var cks []Checkpoint
	ff, err := Stream(context.Background(), p, cfg, plan, maxInsts, func(ck Checkpoint) error {
		cks = append(cks, ck)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ff.Checkpoints = cks
	return ff, nil
}

// capture snapshots the CPU's architectural state and the warmer's
// microarchitectural state into a restore record. Dirty pages are deep
// copies: the checkpoint must stay valid as fast-forward keeps mutating the
// live memory. With an RB, the record is complete once the returned channel
// is closed (see warmer.await).
func capture(cpu *emu.CPU, w *warmer) (*core.RestoreState, <-chan struct{}) {
	st := &core.RestoreState{PC: cpu.PC, Regs: cpu.Regs}
	st.Pages = make([]mem.PageImage, 0, cpu.Mem.DirtyPageCount())
	cpu.Mem.DirtyPages(func(pn uint32, data *[mem.PageSize]byte) bool {
		st.Pages = append(st.Pages, mem.PageImage{PN: pn, Data: *data})
		return true
	})
	return st, w.snapshotInto(st)
}

// IntervalOracle re-derives the correct-path trace for one interval by
// replaying the program functionally from the checkpoint: a fresh CPU gets
// the checkpoint's registers, PC and memory image, and the next
// warm+measured instructions are collected. Checkpoints therefore never
// need to carry (or ship) whole-program traces — an interval's oracle is
// reconstructed wherever the interval runs, in O(interval) time.
func IntervalOracle(p *prog.Program, ck *Checkpoint, n uint64) (*emu.TraceLog, error) {
	if n == 0 {
		return nil, fmt.Errorf("sample: interval %d has no instructions", ck.Index)
	}
	cpu := emu.New(p)
	cpu.PC = ck.State.PC
	cpu.Regs = ck.State.Regs
	cpu.InstCount = ck.At
	for i := range ck.State.Pages {
		cpu.Mem.ApplyPage(&ck.State.Pages[i])
	}
	log, err := emu.CollectTrace(cpu, n)
	if err != nil {
		return nil, fmt.Errorf("sample: interval %d oracle: %w", ck.Index, err)
	}
	if uint64(log.Len()) != n && !log.Halted {
		return nil, fmt.Errorf("sample: interval %d oracle stopped at %d of %d instructions without halting",
			ck.Index, log.Len(), n)
	}
	return log, nil
}
