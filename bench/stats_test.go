package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.11.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestVerdicts(t *testing.T) {
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i)
		}
		return out
	}
	// tied returns parent with the first k pairs improved by d and the
	// rest equal to the parent's run.
	tied := func(parent []float64, k int, d float64) []float64 {
		out := append([]float64(nil), parent...)
		for i := 0; i < k; i++ {
			out[i] -= d
		}
		return out
	}
	tight := seq(10, 0.01) // IQR ≈ 0.05, 0.5% of the median
	cases := []struct {
		name           string
		parent, change []float64
		failed         int
		lower          bool
		bound          float64
		want           string
		wins           int
	}{
		{"faster everywhere", tight, seq(8, 0.01), 0, true, 0.1, verdictImproved, 10},
		// A side that fails reports nothing usable: a crashed change must not
		// win on a lower-is-better metric.
		{"a failed pair fails the comparison", tight[:9], seq(8, 0.01)[:9], 1, true, 0.1, verdictFailed, 0},
		{"every pair failed", nil, nil, 10, true, 0.1, verdictFailed, 0},
		{"9 of 10 wins is enough", tight, append(seq(8, 0.01)[:9], 10.2), 0, true, 0.1, verdictImproved, 9},
		{"ties count for neither side", tight, tied(tight, 8, 2), 0, true, 0.1, verdictUnchanged, 8},
		{"gap inside the parent's IQR", seq(10, 0.5), seq(9.9, 0.5), 0, true, 0.5, verdictUnchanged, 10},
		{"slower beyond the bound", tight, seq(12, 0.01), 0, true, 0.1, verdictRegressed, 0},
		{"slower within the bound", tight, seq(10.5, 0.01), 0, true, 0.1, verdictUnchanged, 0},
		{"spread wider than the bound", seq(8, 0.5), seq(8.1, 0.5), 0, true, 0.1, verdictUnresolved, 0},
		{"wide spread, gain beyond it", seq(10, 0.5), seq(4, 0.5), 0, true, 0.1, verdictImproved, 10},
		// Spread wider than the bound and a gain inside the parent's IQR,
		// but every change run beats every parent run: not unresolved.
		{"wide spread, every change run better", []float64{10, 10.1, 10.2, 10.3, 10.4, 30, 30.1, 30.2, 30.3, 30.4},
			seq(9, 0.1), 0, true, 0.1, verdictUnchanged, 10},
		{"higher is better", tight, seq(12, 0.01), 0, false, 0.1, verdictImproved, 10},
		{"higher is better, lower regresses", tight, seq(8, 0.01), 0, false, 0.1, verdictRegressed, 0},
	}
	for _, c := range cases {
		got := compareAB(c.parent, c.change, c.failed, c.lower, c.bound)
		if got.Verdict != c.want || got.Wins != c.wins {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, got.Verdict, got.Wins, c.want, c.wins)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "top", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 80, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", StartNS: 15, EndNS: 20}, // a grandchild
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 20, 2: 30 - 5, 3: 30, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNestsAndNilTracerRecordsNothing(t *testing.T) {
	tr := newTracer("w")
	a := tr.start("a")
	b := tr.start("b")
	b.end("n", 3)
	a.end()
	c := tr.start("c")
	c.end()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 {
		t.Errorf("parents %d, %d; want %d, 0", tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[0].ID)
	}
	if got := tr.spans[1].num("n"); got != 3 {
		t.Errorf("attribute n = %v, want 3", got)
	}
	var off *tracer
	off.start("x").end("n", 1) // must not panic
}
