package main

import (
	"math"
	"sort"
)

// summary is one metric's distribution over a set of runs.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) ("exclusive" method), so numbers
// printed here can be checked against that reference directly.
func summarize(xs []float64) summary {
	q := quartiles(xs)
	return summary{Median: median(xs), P25: q[0], P75: q[2], N: len(xs)}
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors statistics.quantiles(data, n=4, method="exclusive"):
// positions i·(n+1)/4 with linear interpolation, clamped to the data.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	switch len(s) {
	case 0:
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const parts = 4
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < parts; i++ {
		j := i * m / parts
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*parts
		out[i-1] = (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Verdicts of an interleaved A/B comparison of two builds.
const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
	verdictFailed     = "failed"
)

// abOutcome compares the change's runs against the parent's for one
// metric. parent[i] and change[i] are the two sides of successful pair i;
// failed counts the pairs in which either side failed, and any failed pair
// makes the verdict "failed"; lower says whether a smaller value is better;
// bound is the share of the parent's median by which the change may be
// worse before it counts as a regression.
type abOutcome struct {
	Parent, Change summary
	Wins, Pairs    int
	Failed         int
	Verdict        string
}

func compareAB(parent, change []float64, failed int, lower bool, bound float64) abOutcome {
	o := abOutcome{Pairs: len(parent), Failed: failed, Verdict: verdictFailed}
	if len(parent) > 0 {
		o.Parent, o.Change = summarize(parent), summarize(change)
	}
	if failed > 0 {
		return o
	}
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			o.Wins++
		}
	}
	pm, cm := o.Parent.Median, o.Change.Median
	iqr := o.Parent.P75 - o.Parent.P25
	// worse is how far the change's median sits on the bad side of the
	// parent's, as a share of the parent's median.
	worse := (cm - pm) / math.Abs(pm)
	if !lower {
		worse = -worse
	}
	spread := math.Max(iqr, o.Change.P75-o.Change.P25) / math.Abs(pm)
	switch {
	case 10*o.Wins >= 9*o.Pairs && better(cm, pm) && math.Abs(cm-pm) > iqr:
		o.Verdict = verdictImproved
	case worse > bound:
		o.Verdict = verdictRegressed
	case spread > bound && !allBetter(parent, change, better):
		o.Verdict = verdictUnresolved
	default:
		o.Verdict = verdictUnchanged
	}
	return o
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}
