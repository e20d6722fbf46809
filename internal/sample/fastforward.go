package sample

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/prog"
)

// FastForward executes the program once at functional speed with functional
// warming, capturing a checkpoint at each sampled interval's capture point
// (max(0, S_k − Warmup)). maxInsts caps the dynamic instruction count like
// core.New's cap (0 = to completion).
//
// With an RB, the RB is warmed on a second goroutine fed from this one (see
// rbWarmer), which FastForward joins before it returns on every path,
// re-raising any panic it hit.
//
// The pass is deterministic: the same (program, cfg, plan, maxInsts) yields
// byte-identical checkpoints. The first checkpoint of any plan is captured
// at instruction 0 before any warming, so restoring it reproduces a cold
// machine exactly — that is what makes a one-interval plan bit-identical to
// a non-sampled run.
func FastForward(p *prog.Program, cfg core.Config, plan Plan, maxInsts uint64) (*FFResult, error) {
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
	stride := plan.Interval * plan.Every
	for k := uint64(0); ; k++ {
		start := k * stride
		at := start
		if at > plan.Warmup {
			at -= plan.Warmup
		} else {
			at = 0
		}
		if maxInsts > 0 && start >= maxInsts {
			break
		}
		if err := runTo(cpu, at, maxInsts); err != nil {
			return nil, err
		}
		if cpu.InstCount < at || cpu.Halted {
			break // program ended before this interval begins
		}
		ff.Checkpoints = append(ff.Checkpoints, Checkpoint{
			Index: len(ff.Checkpoints),
			Start: start,
			At:    at,
			State: capture(cpu, w),
		})
	}

	// Finish the functional run (warming no longer needed) to learn the
	// program totals the stitcher scales to.
	cpu.TraceFn = nil
	if maxInsts == 0 {
		if _, err := cpu.Run(0); err != nil {
			return nil, err
		}
	} else if cpu.InstCount < maxInsts {
		if _, err := cpu.Run(maxInsts - cpu.InstCount); err != nil {
			return nil, err
		}
	}
	ff.TotalInsts = cpu.InstCount
	ff.Halted = cpu.Halted
	ff.ExitCode = cpu.ExitCode
	ff.Output = cpu.Output.String()

	// Drop checkpoints whose measured region is empty (capture raced the
	// program's end).
	for len(ff.Checkpoints) > 0 && ff.Checkpoints[len(ff.Checkpoints)-1].Start >= ff.TotalInsts {
		ff.Checkpoints = ff.Checkpoints[:len(ff.Checkpoints)-1]
	}
	if len(ff.Checkpoints) == 0 {
		return nil, fmt.Errorf("sample: program retired no instructions")
	}
	return ff, nil
}

// runTo advances the CPU to the absolute target instruction count, bounded
// by the overall cap; it never runs past either.
func runTo(cpu *emu.CPU, target, maxInsts uint64) error {
	limit := target
	if maxInsts > 0 && limit > maxInsts {
		limit = maxInsts
	}
	if cpu.InstCount >= limit {
		return nil
	}
	_, err := cpu.Run(limit - cpu.InstCount)
	return err
}

// capture snapshots the CPU's architectural state and the warmer's
// microarchitectural state into a restore record. Dirty pages are deep
// copies: the checkpoint must stay valid as fast-forward keeps mutating the
// live memory.
func capture(cpu *emu.CPU, w *warmer) *core.RestoreState {
	st := &core.RestoreState{PC: cpu.PC, Regs: cpu.Regs}
	st.Pages = make([]mem.PageImage, 0, cpu.Mem.DirtyPageCount())
	cpu.Mem.DirtyPages(func(pn uint32, data *[mem.PageSize]byte) bool {
		st.Pages = append(st.Pages, mem.PageImage{PN: pn, Data: *data})
		return true
	})
	w.snapshotInto(st)
	return st
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
