package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// TestRunAllPartialResults: one failing benchmark must not discard the
// campaign — RunAll returns stats for every other benchmark plus a joined
// error naming the failure.
func TestRunAllPartialResults(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			r := fastRunner()
			if !parallel {
				r.Parallelism = 1
			}
			boom := errors.New("synthetic failure")
			r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
				if bench == "perl" {
					return core.Stats{}, boom
				}
				return core.Stats{Committed: 1}, nil
			}
			out, err := r.RunAll(core.DefaultConfig())
			if err == nil {
				t.Fatal("RunAll swallowed the failure")
			}
			if !errors.Is(err, boom) {
				t.Fatalf("joined error lost the cause: %v", err)
			}
			if !strings.Contains(err.Error(), "perl") {
				t.Fatalf("joined error does not name the failing benchmark: %v", err)
			}
			want := len(workload.Names()) - 1
			if len(out) != want {
				t.Fatalf("partial results: got %d benchmarks, want %d", len(out), want)
			}
			if _, bad := out["perl"]; bad {
				t.Fatal("failed benchmark present in results")
			}
		})
	}
}

// TestRunAllJoinsAllErrors: multiple failures are all reported, in the
// paper's benchmark order regardless of goroutine completion order.
func TestRunAllJoinsAllErrors(t *testing.T) {
	r := fastRunner()
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		if bench == "go" || bench == "vortex" {
			return core.Stats{}, fmt.Errorf("fail-%s", bench)
		}
		return core.Stats{}, nil
	}
	out, err := r.RunAll(core.DefaultConfig())
	if err == nil {
		t.Fatal("no error for two failing benchmarks")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fail-go") || !strings.Contains(msg, "fail-vortex") {
		t.Fatalf("joined error missing a failure: %v", msg)
	}
	if strings.Index(msg, "fail-go") > strings.Index(msg, "fail-vortex") {
		t.Fatalf("joined errors out of benchmark order: %v", msg)
	}
	if len(out) != len(workload.Names())-2 {
		t.Fatalf("got %d partial results, want %d", len(out), len(workload.Names())-2)
	}
}

// TestRunRecoversPanic: a panicking simulation becomes an error instead of
// killing the process (RunAll runs attempts inside goroutines, where an
// unrecovered panic would take down the whole campaign).
func TestRunRecoversPanic(t *testing.T) {
	r := fastRunner()
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		panic("rogue index out of range")
	}
	_, err := r.Run("compress", core.DefaultConfig())
	if err == nil {
		t.Fatal("panic was not converted to an error")
	}
	for _, want := range []string{"panic", "rogue index", "compress"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovered error %q missing %q", err.Error(), want)
		}
	}
	// The runner must remain usable after a panic.
	r.runHook = nil
	if _, err := r.Run("compress", core.DefaultConfig()); err != nil {
		t.Fatalf("runner unusable after recovered panic: %v", err)
	}
}

// TestTransientRetry: failures wrapped in Transient are retried up to
// Retries times; deterministic failures are not retried at all.
func TestTransientRetry(t *testing.T) {
	r := fastRunner()
	r.Retries = 3
	calls := 0
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		calls++
		if calls < 3 {
			return core.Stats{}, &Transient{Err: fmt.Errorf("flaky attempt %d", calls)}
		}
		return core.Stats{Committed: 99}, nil
	}
	s, err := r.Run("compress", core.DefaultConfig())
	if err != nil {
		t.Fatalf("transient failure not retried to success: %v", err)
	}
	if calls != 3 || s.Committed != 99 {
		t.Fatalf("want success on call 3, got calls=%d stats=%+v", calls, s)
	}

	// Exhausted retries surface the last transient error.
	r2 := fastRunner()
	r2.Retries = 2
	calls = 0
	r2.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		calls++
		return core.Stats{}, &Transient{Err: errors.New("always down")}
	}
	if _, err := r2.Run("compress", core.DefaultConfig()); err == nil || !IsTransient(err) {
		t.Fatalf("exhausted retries: want transient error, got %v", err)
	}
	if calls != 3 { // initial attempt + 2 retries
		t.Fatalf("want 3 attempts (1 + 2 retries), got %d", calls)
	}

	// Deterministic failures: exactly one attempt.
	r3 := fastRunner()
	r3.Retries = 5
	calls = 0
	r3.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		calls++
		return core.Stats{}, errors.New("deterministic divergence")
	}
	if _, err := r3.Run("compress", core.DefaultConfig()); err == nil {
		t.Fatal("deterministic failure swallowed")
	}
	if calls != 1 {
		t.Fatalf("deterministic failure retried %d times; must not be", calls-1)
	}
}

// TestRunTimeout: a deadline shorter than any real simulation aborts the
// run with context.DeadlineExceeded instead of hanging the campaign: a plain
// run, a whole-program sampled cell (whose deadline covers its fast-forward
// pass) and each interval of RunSampled.
func TestRunTimeout(t *testing.T) {
	plan := sample.Plan{Interval: 20_000, Every: 2, Warmup: 500}
	for _, c := range []struct {
		name string
		run  func(r *Runner) error
	}{
		{"plain", func(r *Runner) error {
			_, err := r.Run("compress", core.DefaultConfig())
			return err
		}},
		{"whole-program sampled", func(r *Runner) error {
			r.Sample = &plan
			_, err := r.Run("compress", core.IRChoice(false))
			return err
		}},
		{"RunSampled", func(r *Runner) error {
			_, err := r.RunSampled(context.Background(), "compress", core.IRChoice(false), plan)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner()
			r.Timeout = time.Nanosecond // expires before the first slice completes
			err := c.run(r)
			if err == nil {
				t.Fatal("nanosecond deadline did not abort the run")
			}
			if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "deadline") {
				t.Fatalf("timeout error is not the deadline: %v", err)
			}
		})
	}
}

// TestFailedRunsNotCached: an error must not poison the cache — a later
// call (e.g. after a transient condition clears) re-attempts the run.
func TestFailedRunsNotCached(t *testing.T) {
	r := fastRunner()
	fail := true
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		if fail {
			return core.Stats{}, errors.New("first time fails")
		}
		return core.Stats{Committed: 7}, nil
	}
	if _, err := r.Run("compress", core.DefaultConfig()); err == nil {
		t.Fatal("want first-call failure")
	}
	fail = false
	s, err := r.Run("compress", core.DefaultConfig())
	if err != nil || s.Committed != 7 {
		t.Fatalf("failure was cached: err=%v stats=%+v", err, s)
	}
}

// TestCacheKeyUsesConfigKey: two configs sharing a display name but
// differing in one structural field must occupy distinct cache slots.
func TestCacheKeyUsesConfigKey(t *testing.T) {
	r := fastRunner()
	byCfg := map[string]int{}
	r.runHook = func(bench string, cfg core.Config) (core.Stats, error) {
		byCfg[cfg.Key()]++
		return core.Stats{Committed: uint64(cfg.ROBSize)}, nil
	}
	a := core.DefaultConfig()
	b := core.DefaultConfig()
	b.ROBSize *= 2
	if a.Name() != b.Name() {
		t.Fatalf("premise broken: names differ (%q vs %q)", a.Name(), b.Name())
	}
	sa, err := r.Run("compress", a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.Run("compress", b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Committed == sb.Committed {
		t.Fatal("second config served the first config's cached stats")
	}
	if len(byCfg) != 2 {
		t.Fatalf("want 2 distinct simulations, got %d", len(byCfg))
	}
}
