package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// defaultSeconds is the run length when -seconds is not given; it equals
// run_seconds in BENCHMARK.json.
const defaultSeconds = 24

// setupSamples is at least how many extra children per workload run only the
// set-up, so setup_s is a median over many samples even when a run has one
// or two reps. They are spread over the whole run (see measure).
const setupSamples = 36

// childTimeout bounds one child; a child past it is killed and its rep
// counts as failed.
const childTimeout = 150 * time.Second

// runOpts are the settings a run passes on to its children.
type runOpts struct {
	bin     string // the executable children run (this program)
	seed    int64
	seconds int
	tiny    bool
	spans   string
}

// reps is how many timed reps a run makes of w.
func (o runOpts) reps(w *spec) int {
	return max(1, int(math.Round(float64(o.seconds)/w.repSeconds)))
}

// childRun is one finished child as the parent saw it.
type childRun struct {
	res   childResult
	cpuS  float64
	rssMB float64
}

// spawn runs one child of this program and waits for it to exit.
func spawn(ctx context.Context, o runOpts, workload string, rep int, extra ...string) childRun {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", workload, "-seed", strconv.FormatInt(o.seed, 10), "-rep", strconv.Itoa(rep)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	args = append(args, extra...)
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, o.bin, append(args, "-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var run childRun
	if err := lastJSON(out.Bytes(), &run.res); err != nil || runErr != nil {
		run.res.Ops = max(run.res.Ops, 1)
		run.res.Failed = run.res.Ops
		run.res.Errors = append(run.res.Errors, fmt.Sprintf("child %s rep %d: exit %v, result %v", workload, rep, runErr, err))
	}
	if ps := cmd.ProcessState; ps != nil {
		run.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return run
}

// lastJSON decodes the last non-empty line of out into v.
func lastJSON(out []byte, v any) error {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return fmt.Errorf("no output")
	}
	return json.Unmarshal(lines[len(lines)-1], v)
}

// tally is everything a run learned about one workload.
type tally struct {
	spec    *spec
	values  map[string][]float64 // end-to-end metric → one value per sample
	layer   map[string]float64
	reps    int // timed children, failed ones included
	ops     int
	failed  int
	digests []string
	errors  []string
}

func (t *tally) add(run childRun, timed bool) {
	r := run.res
	t.values["setup_s"] = append(t.values["setup_s"], r.SetupS)
	t.ops += r.Ops
	t.failed += r.Failed
	t.errors = append(t.errors, r.Errors...)
	if !timed {
		return
	}
	t.reps++
	if r.Failed > 0 {
		return
	}
	t.values["run_s"] = append(t.values["run_s"], r.RunS)
	t.values["cpu_s"] = append(t.values["cpu_s"], run.cpuS)
	t.values["peak_rss_mb"] = append(t.values["peak_rss_mb"], run.rssMB)
	t.values["simcycles_per_s"] = append(t.values["simcycles_per_s"], r.SimCycles/r.RunS)
	t.digests = append(t.digests, r.Digest)
}

// settle fails the whole run when its reps disagree on the simulated
// results: the work differed only in order, so the results must not.
func (t *tally) settle() {
	for _, d := range t.digests {
		if d != t.digests[0] {
			t.failed = t.ops
			t.errors = append(t.errors, fmt.Sprintf("%s: reps produced different results (%s vs %s)", t.spec.name, d, t.digests[0]))
			return
		}
	}
}

// measure runs the untraced reps of every workload, round-robin, so that
// drift or a noisy neighbour lands on all workloads alike. The set-up-only
// children run in batches, one before the first timed rep and one after
// every timed rep: set-up takes milliseconds, so samples taken back to back
// would all see the box in the same second.
func measure(ctx context.Context, o runOpts, ws []*spec) []*tally {
	ts := make([]*tally, len(ws))
	rounds, timed := 0, 0
	for i, w := range ws {
		ts[i] = &tally{spec: w, values: map[string][]float64{}}
		rounds = max(rounds, o.reps(w))
		timed += o.reps(w)
	}
	perBatch := (setupSamples + timed) / (timed + 1) // ⌈setupSamples / batches⌉
	setupRep := 0
	sampleSetup := func() {
		for k := 0; k < perBatch; k++ {
			for i, w := range ws {
				ts[i].add(spawn(ctx, o, w.name, setupRep, "-setup-only"), false)
			}
			setupRep++
		}
	}
	sampleSetup()
	for r := 0; r < rounds; r++ {
		for i, w := range ws {
			if r < o.reps(w) {
				ts[i].add(spawn(ctx, o, w.name, r), true)
				sampleSetup()
			}
		}
	}
	for _, t := range ts {
		t.settle()
	}
	return ts
}

// measureTraced runs, per workload, one untraced rep and then the same rep
// traced; the gap between their run_s is the tracing overhead.
func measureTraced(ctx context.Context, o runOpts, ws []*spec) []*tally {
	var ts []*tally
	for _, w := range ws {
		t := &tally{spec: w, values: map[string][]float64{}}
		plain := spawn(ctx, o, w.name, 0)
		t.add(plain, true)
		traced := spawn(ctx, o, w.name, 0, "-trace", "1", "-spans", o.spans)
		t.add(traced, false)
		t.layer = traced.res.Layer
		if t.layer != nil {
			t.layer["trace.overhead_frac"] = ratio(traced.res.RunS-plain.res.RunS, plain.res.RunS)
		}
		if traced.res.Failed == 0 {
			t.digests = append(t.digests, traced.res.Digest)
		}
		t.settle()
		ts = append(ts, t)
	}
	return ts
}

// metricLine is one (workload, metric) result.
type metricLine struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer,omitempty"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Median   float64 `json:"median"`
	P25      float64 `json:"p25"`
	P75      float64 `json:"p75"`
	N        int     `json:"n"`
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one line per (workload, metric), then the result line,
// and returns whether every output check passed. With one workload the
// result line's metrics are keyed by metric name, otherwise by
// "workload/metric".
func report(w io.Writer, ts []*tally, traced bool) (bool, error) {
	enc := json.NewEncoder(w)
	var werr error
	emit := func(v any) {
		if err := enc.Encode(v); err != nil && werr == nil {
			werr = err
		}
	}
	res := resultLine{Metrics: map[string]metricValue{}}
	put := func(t *tally, line metricLine) {
		emit(line)
		key := line.Metric
		if len(ts) > 1 {
			key = t.spec.name + "/" + key
		}
		res.Metrics[key] = metricValue{Value: line.Median, Unit: line.Unit}
	}
	for _, t := range ts {
		res.Attempted += t.ops
		res.Failed += t.failed
		for _, e := range t.errors {
			fmt.Fprintf(os.Stderr, "bench: %s\n", e)
		}
		if traced {
			for _, m := range perLayer {
				v := t.layer[m.name]
				put(t, metricLine{Workload: t.spec.name, Layer: m.layer(), Metric: m.name, Unit: m.unit, Better: m.better,
					Median: v, P25: v, P75: v, N: 1})
			}
			continue
		}
		for _, m := range endToEnd {
			s := summarize(t.values[m.name])
			if s.N == 0 {
				s = summary{}
			}
			put(t, metricLine{Workload: t.spec.name, Metric: m.name, Unit: m.unit, Better: m.better,
				Median: s.Median, P25: s.P25, P75: s.P75, N: s.N})
		}
		frac := ratio(float64(t.failed), float64(t.ops))
		emit(metricLine{Workload: t.spec.name, Metric: "failed_frac", Unit: "fraction", Better: "lower",
			Median: frac, P25: frac, P75: frac, N: t.reps})
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Attempted = max(res.Attempted, 1)
	emit(res)
	return res.Correct, werr
}
