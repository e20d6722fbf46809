package sample

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/ff_digests.json instead of comparing")

// digestPlan and digestMaxInsts pin the fast-forward pass the digests cover:
// ten checkpoints on gcc, the first at instruction 0 and the rest 7 300 and
// then 9 000 instructions apart, with the cap cutting the tail short of the
// program's end. Every gcc instruction in this span is an RB update, so with
// 4096-update batches the RB goroutine receives the checkpoints in batches
// holding 0, 3 204 and 808 updates.
var digestPlan = Plan{Interval: 4_500, Every: 2, Warmup: 1_700}

const digestMaxInsts = 82_123

// ffDigest is one technique's fast-forward fingerprint: the SHA-256 of each
// checkpoint's serialized form, and of the program totals.
type ffDigest struct {
	Checkpoints []string `json:"checkpoints"`
	Totals      string   `json:"totals"`
}

func digestOf(t *testing.T, ff *FFResult) ffDigest {
	t.Helper()
	var d ffDigest
	for i := range ff.Checkpoints {
		b, err := ff.Checkpoints[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		d.Checkpoints = append(d.Checkpoints, hex.EncodeToString(sum[:]))
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%d|%t|%d|%q", ff.TotalInsts, ff.Halted, ff.ExitCode, ff.Output))
	d.Totals = hex.EncodeToString(sum[:])
	return d
}

// TestFastForwardCheckpointDigests pins the bytes of every checkpoint the
// fast-forward pass captures, for every registered technique, against
// digests recorded in testdata. Any change to what warming observes, in
// what order, or how a checkpoint is assembled shows up here as a changed
// digest. Regenerate with -update only for a deliberate format change.
func TestFastForwardCheckpointDigests(t *testing.T) {
	p := loadBench(t, "gcc")
	path := filepath.Join("testdata", "ff_digests.json")
	var want map[string]ffDigest
	if !*updateDigests {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}

	techniques := allTechniques()
	var mu sync.Mutex
	got := make(map[string]ffDigest)
	t.Run("techniques", func(t *testing.T) {
		for name, cfg := range techniques {
			t.Run(name, func(t *testing.T) {
				t.Parallel() // checkpoint encoding dominates, and is slow under -race
				ff, err := FastForward(p, cfg, digestPlan, digestMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if len(ff.Checkpoints) < 10 || ff.Checkpoints[0].At != 0 || ff.Halted {
					t.Fatalf("plan gave %d checkpoints (first at %d, halted %t); the digests need ≥ 10 from instruction 0 and a capped run",
						len(ff.Checkpoints), ff.Checkpoints[0].At, ff.Halted)
				}
				g := digestOf(t, ff)
				mu.Lock()
				got[name] = g
				mu.Unlock()
				if *updateDigests {
					return
				}
				w, ok := want[name]
				if !ok {
					t.Fatal("technique has no pinned digest; run with -update")
				}
				for i := range max(len(g.Checkpoints), len(w.Checkpoints)) {
					if i >= len(g.Checkpoints) || i >= len(w.Checkpoints) || g.Checkpoints[i] != w.Checkpoints[i] {
						t.Errorf("checkpoint %d differs (%d checkpoints, want %d)", i, len(g.Checkpoints), len(w.Checkpoints))
						break
					}
				}
				if g.Totals != w.Totals {
					t.Error("program totals differ")
				}
			})
		}
	})

	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		if _, ok := techniques[name]; !ok {
			t.Errorf("%s: pinned technique is no longer registered", name)
		}
	}
}

// BenchmarkFastForward measures the warmed fast-forward pass that sampled
// runs pay before their first interval: gcc ×8 under sampled-gcc's plan
// (100 K-instruction intervals, one in twenty, 2 K warmup), for a machine
// with no technique tables, one with the reuse buffer and one with the
// value prediction tables. `make profile` profiles the ir case.
func BenchmarkFastForward(b *testing.B) {
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Load(8)
	if err != nil {
		b.Fatal(err)
	}
	plan := Plan{Interval: 100_000, Every: 20, Warmup: 2_000}
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"base", core.DefaultConfig()},
		{"ir", core.IRChoice(false)},
		{"vp_magic", core.VPChoice(vp.Magic, core.SB, core.ME, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				ff, err := FastForward(p, c.cfg, plan, 0)
				if err != nil {
					b.Fatal(err)
				}
				insts += ff.TotalInsts
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// loopProgram assembles a loop of iters eight-instruction iterations (a
// load, a store and a branch each) that ends in the given syscall: 10 exits
// cleanly, anything unknown faults.
func loopProgram(t *testing.T, iters, syscall int) *prog.Program {
	t.Helper()
	p, err := asm.Assemble("loop.s", fmt.Sprintf(`
        .data
buf:    .word 0, 0, 0, 0
        .text
main:   la    $s0, buf
        li    $t0, 0
loop:   addiu $t0, $t0, 1
        andi  $t1, $t0, 12
        addu  $t2, $s0, $t1
        lw    $t3, 0($t2)
        addu  $t3, $t3, $t0
        sw    $t3, 0($t2)
        slti  $at, $t0, %d
        bnez  $at, loop
        li    $v0, %d
        syscall
`, iters, syscall))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitGoroutines fails unless the goroutine count falls back to n: a joined
// goroutine may still be returning from its last deferred call, so it polls
// briefly rather than reading the count once.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive FastForward, want %d", runtime.NumGoroutine(), n)
		}
	}
}

// TestFastForwardJoinsRBWarmer checks that an IR fast-forward leaves no
// goroutine behind on each way the pass can end, and that an emulator fault
// comes back as that fault. The long loop spans many RB batches, so the
// emulator has run ahead of the RB when it stops.
func TestFastForwardJoinsRBWarmer(t *testing.T) {
	cfg := core.IRChoice(false)
	// 5 000 iterations retire ~40 K instructions, past ten capture points;
	// 100 retire ~800, so only instruction 0's checkpoint is captured.
	plan := Plan{Interval: 4_000}
	for _, c := range []struct {
		name           string
		iters, sys     int
		maxInsts       uint64
		fault          bool
		minCheckpoints int
	}{
		{name: "fault after checkpoints", iters: 5_000, sys: 99, fault: true},
		{name: "fault before second checkpoint", iters: 100, sys: 99, fault: true},
		{name: "halt before second checkpoint", iters: 100, sys: emu.SysExit, minCheckpoints: 1},
		{name: "instruction cap", iters: 5_000, sys: emu.SysExit, maxInsts: 30_001, minCheckpoints: 8},
		{name: "halt", iters: 5_000, sys: emu.SysExit, minCheckpoints: 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := loopProgram(t, c.iters, c.sys)
			before := runtime.NumGoroutine()
			ff, err := FastForward(p, cfg, plan, c.maxInsts)
			waitGoroutines(t, before)
			if c.fault {
				var f *emu.Fault
				if !errors.As(err, &f) {
					t.Fatalf("err = %v, want an *emu.Fault", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ff.Checkpoints) < c.minCheckpoints {
				t.Fatalf("%d checkpoints, want ≥ %d", len(ff.Checkpoints), c.minCheckpoints)
			}
			for _, ck := range ff.Checkpoints {
				if ck.State.RB == nil {
					t.Fatalf("checkpoint %d has no RB snapshot", ck.Index)
				}
			}
		})
	}
}

// TestFastForwardCancellation checks that a cancelled context stops the pass
// wherever it is, before the first checkpoint, between checkpoints and in
// the tail after the last one, with an error that is the cancellation, and
// that the RB goroutine is joined on that path too.
func TestFastForwardCancellation(t *testing.T) {
	cfg := core.IRChoice(false)
	p := loopProgram(t, 5_000, emu.SysExit) // ~40 K instructions
	for _, c := range []struct {
		name     string
		plan     Plan
		maxInsts uint64
		cancelAt int // cancel as this checkpoint is handed out; -1 = before the pass
	}{
		{name: "before the pass", plan: Plan{Interval: 4_000}, cancelAt: -1},
		{name: "between checkpoints", plan: Plan{Interval: 4_000}, cancelAt: 2},
		// Checkpoints at 0 and 20 000 only; the second is handed out in the
		// tail run to the cap.
		{name: "in the tail", plan: Plan{Interval: 4_000, Every: 5}, maxInsts: 30_001, cancelAt: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt < 0 {
				cancel()
			}
			handed := 0
			_, err := Stream(ctx, p, cfg, c.plan, c.maxInsts, func(ck Checkpoint) error {
				handed++
				if ck.Index == c.cancelAt {
					cancel()
				}
				return nil
			})
			waitGoroutines(t, before)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the cancellation", err)
			}
			if c.cancelAt >= 0 && handed != c.cancelAt+1 {
				t.Fatalf("%d checkpoints handed out, want the pass to stop after %d", handed, c.cancelAt+1)
			}
		})
	}
}

// TestRBWarmerPanicReraised: a panic on the RB goroutine must not strand the
// emulator, which keeps handing over batches, and must surface from stop on
// the caller's goroutine once the RB goroutine has exited.
func TestRBWarmerPanicReraised(t *testing.T) {
	before := runtime.NumGoroutine()
	q := startRBWarmer(reuse.DefaultConfig())
	q.push(prog.TextBase, nil, 0, 0, 0, 0) // a nil instruction panics in Insert
	in := &isa.Inst{Op: isa.OpADDU, Src1: 8, Src2: 9, Dest: 10}
	for i := range (rbBatches + 2) * rbBatchLen {
		q.push(prog.TextBase+4, in, isa.Word(i), 0, isa.Word(i), 0)
	}
	q.handOff(&core.RestoreState{})
	defer waitGoroutines(t, before)
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "reuse-buffer warming") {
			t.Fatalf("stop raised %v, want the RB goroutine's panic", p)
		}
	}()
	q.stop()
}
