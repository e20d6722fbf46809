package main

import (
	"errors"
	"fmt"
	"time"
)

// childResult is what one child reports on the last line of its standard
// output. The parent adds the CPU time and peak RSS it reads from the
// child's process state.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	SimCycles float64            `json:"sim_cycles"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

type childOpts struct {
	workload  string
	seed      int64
	rep       int
	tiny      bool
	setupOnly bool
	trace     bool
	spans     string // directory for the traced child's span file
	// spawnedAt is the wall clock, in Unix nanoseconds, at which the parent
	// started this process; 0 when the child runs in the caller's process.
	spawnedAt int64
}

// runChild runs one rep of a workload in this process: setup, the timed
// run, the output checks and, when traced, the per-layer probes. Any error
// fails every operation of the rep.
func runChild(o childOpts) childResult {
	var res childResult
	if err := runRep(o, &res); err != nil {
		res.Ops = max(res.Ops, 1)
		res.Failed = res.Ops
		res.Errors = append(res.Errors, err.Error())
	}
	return res
}

func runRep(o childOpts, res *childResult) error {
	entered := time.Now()
	sp, err := findSpec(o.workload)
	if err != nil {
		return err
	}
	sz := sp.full
	if o.tiny {
		sz = sp.tiny
	}
	j := &job{size: sz, seed: o.seed, rep: o.rep}
	if o.trace {
		j.tr = newTracer(o.workload)
	}
	t := sp.newTask(sz)

	s := j.tr.start("setup")
	err = t.setup(j)
	s.end()
	if o.spawnedAt > 0 {
		res.SetupS = float64(time.Now().UnixNano()-o.spawnedAt) / 1e9
	} else {
		res.SetupS = time.Since(entered).Seconds()
	}
	if err != nil || o.setupOnly {
		return err
	}

	var g0 goSample
	if o.trace {
		g0 = readGo()
	}
	s = j.tr.start("workload")
	t0 := time.Now()
	err = t.run(j)
	res.RunS = time.Since(t0).Seconds()
	if o.trace {
		s.end(goAttrs(g0, readGo())...)
	} else {
		s.end()
	}
	res.Ops, res.SimCycles = j.ops, j.simCycles
	if err != nil {
		return err
	}

	s = j.tr.start("check")
	err = t.check(j)
	s.end()
	res.Digest = j.digest
	if err != nil || !o.trace {
		return err
	}
	err = runProbes(j, sp.harnessProbe)
	res.Layer = layerMetrics(j.tr.spans)
	if werr := writeSpans(o.spans, o.workload, j.tr.spans); werr != nil {
		err = errors.Join(err, fmt.Errorf("write spans: %w", werr))
	}
	return err
}
