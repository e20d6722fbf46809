package core

import (
	"testing"

	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// resetTestConfigs covers every technique and VPT scheme family so Reset
// is exercised across every structure it may rebuild or reuse (VPT —
// including the FCM history tables — VPA, RB, caches, predictor) and both
// hybrid arbitration policies.
func resetTestConfigs() []Config {
	return []Config{
		DefaultConfig(),
		IRChoice(false),
		VPChoice(vp.Stride, SB, ME, 1),
		VPChoice(vp.TwoDelta, SB, ME, 1),
		VPChoice(vp.FCM, NSB, NME, 0),
		HybridChoice(vp.Stride, SB, ME, 1),
		HybridConfChoice(vp.FCM, SB, ME, 1),
	}
}

const resetTestInsts = 30_000 // truncated runs keep the full matrix fast

type runResult struct {
	stats Stats
	out   string
	exit  int
}

func runFresh(t *testing.T, w *workload.Workload, cfg Config) (*Machine, runResult) {
	t.Helper()
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, cfg, resetTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	return m, finishRun(t, m, w.Name, cfg)
}

func finishRun(t *testing.T, m *Machine, name string, cfg Config) runResult {
	t.Helper()
	if err := m.Run(0); err != nil {
		t.Fatalf("%s/%s: %v", name, cfg.Name(), err)
	}
	return runResult{stats: m.Stats(), out: m.Output(), exit: m.ExitCode()}
}

// TestResetDeterminism is the machine-reuse contract: a Reset machine must
// produce bit-identical Stats (and Output and ExitCode) to a machine built
// fresh by New with the same program and configuration — including when the
// reused machine previously ran a *different* configuration.
func TestResetDeterminism(t *testing.T) {
	cfgs := resetTestConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// One long-lived machine is reset through every configuration in
			// turn, so each comparison also covers cross-config reuse (the
			// previous run left different structures behind).
			reused, prev := runFresh(t, w, cfgs[0])
			for i, cfg := range cfgs {
				_, fresh := runFresh(t, w, cfg)
				var got runResult
				if i == 0 {
					got = prev
				} else {
					if err := reused.Reset(cfg); err != nil {
						t.Fatalf("%s/%s: Reset: %v", name, cfg.Name(), err)
					}
					got = finishRun(t, reused, name, cfg)
				}
				if got.stats != fresh.stats {
					t.Errorf("%s/%s: reused machine Stats differ from fresh\n reused: %+v\n fresh:  %+v",
						name, cfg.Name(), got.stats, fresh.stats)
				}
				if got.out != fresh.out {
					t.Errorf("%s/%s: reused machine Output differs from fresh", name, cfg.Name())
				}
				if got.exit != fresh.exit {
					t.Errorf("%s/%s: exit code %d != fresh %d", name, cfg.Name(), got.exit, fresh.exit)
				}
			}
			// Same-config back-to-back reuse, twice, to catch state that only
			// leaks on the second reuse.
			cfg := cfgs[len(cfgs)-1]
			_, fresh := runFresh(t, w, cfg)
			for round := 0; round < 2; round++ {
				if err := reused.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				if got := finishRun(t, reused, name, cfg); got.stats != fresh.stats {
					t.Errorf("%s/%s: round %d reuse Stats differ from fresh", name, cfg.Name(), round)
				}
			}
		})
	}
}

// TestCkptPoolBounded asserts the checkpoint free list's high-water mark:
// the number of checkpoints ever allocated never exceeds MaxBranches (the
// cap on live checkpoints), every checkpoint is back in the pool once the
// machine is reset, and reuse allocates no new ones.
func TestCkptPoolBounded(t *testing.T) {
	w, err := workload.Get("go") // branchy: exercises squash and NSB paths
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range resetTestConfigs() {
		m, _ := runFresh(t, w, cfg)
		if m.ckptAllocs > cfg.MaxBranches {
			t.Errorf("%s: %d checkpoints allocated, MaxBranches is %d",
				cfg.Name(), m.ckptAllocs, cfg.MaxBranches)
		}
		live := 0
		for i := range m.rob {
			if m.rob[i].valid && m.rob[i].checkpoint != nil {
				live++
			}
		}
		if len(m.ckptFree)+live != m.ckptAllocs {
			t.Errorf("%s: pool leak: %d free + %d live != %d allocated",
				cfg.Name(), len(m.ckptFree), live, m.ckptAllocs)
		}
		before := m.ckptAllocs
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if len(m.ckptFree) != before {
			t.Errorf("%s: after Reset, %d checkpoints in pool, want all %d",
				cfg.Name(), len(m.ckptFree), before)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if m.ckptAllocs != before {
			t.Errorf("%s: reuse run allocated %d new checkpoints",
				cfg.Name(), m.ckptAllocs-before)
		}
	}
}
