package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchmarkPath = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json the A/B mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

type abOpts struct {
	parent, change string
	pairs          int
	seed           int64
	seconds        int
	tiny           bool
}

// abLine is one (workload, metric) comparison.
type abLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	Parent   summary `json:"parent"`
	Change   summary `json:"change"`
	Wins     int     `json:"change_wins"`
	Pairs    int     `json:"pairs"`
	Failed   int     `json:"failed_pairs"`
	Verdict  string  `json:"verdict"`
}

// runAB runs the two benchmark binaries in pairs, alternating which one
// goes first, and compares every end-to-end metric of every workload by
// the rule in compareAB. Each side is a whole run of its own binary, so
// each side's children link that side's simulator. A pair in which either
// side fails is left out of the comparison, and every metric of its
// workload gets the verdict "failed".
func runAB(ctx context.Context, o abOpts, ws []*spec) int {
	def, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	bins := [2]string{o.parent, o.change}
	// vals[workload][metric][side] holds one value per successful pair.
	vals := map[string]map[string][2][]float64{}
	failedPairs := map[string]int{}
	for p := 0; p < o.pairs; p++ {
		for _, w := range ws {
			if vals[w.name] == nil {
				vals[w.name] = map[string][2][]float64{}
			}
			sides := [2]int{0, 1}
			if p%2 == 1 {
				sides = [2]int{1, 0}
			}
			var got [2]resultLine
			ok := true
			for _, side := range sides {
				res, err := runSide(ctx, bins[side], w.name, o)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s on %s, pair %d: correct=%v %v\n", bins[side], w.name, p, res.Correct, err)
					ok = false
				}
				got[side] = res
			}
			if !ok {
				failedPairs[w.name]++
				continue
			}
			for _, m := range def.EndToEnd {
				v := vals[w.name][m.Name]
				for side := range got {
					v[side] = append(v[side], got[side].Metrics[m.Name].Value)
				}
				vals[w.name][m.Name] = v
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, w := range ws {
		for _, m := range def.EndToEnd {
			v := vals[w.name][m.Name]
			out := compareAB(v[0], v[1], failedPairs[w.name], m.Better == "lower", m.Bound)
			line := abLine{Workload: w.name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
				Parent: out.Parent, Change: out.Change, Wins: out.Wins, Pairs: out.Pairs, Failed: out.Failed, Verdict: out.Verdict}
			if err := enc.Encode(line); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	if len(failedPairs) > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

// runSide runs one whole benchmark run of one binary on one workload.
func runSide(ctx context.Context, bin, workload string, o abOpts) (resultLine, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var res resultLine
	if err := lastJSON(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("result: %w (exit: %v)", err, runErr)
	}
	return res, runErr
}
