package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// distinctStats gives the i-th counter of the walk (from 1) the value
// base+i.
func distinctStats(base uint64) Stats {
	var s Stats
	i := uint64(0)
	zipStats(&s, &s, func(string, uint64, uint64) uint64 {
		i++
		return base + i
	})
	return s
}

// TestStatsMinus pins the counter walk that Minus (the warmup accounting of
// sampled intervals), Plus and Scale (stitching) and StatsValues (the
// observer's samples) share, on every counter at once.
func TestStatsMinus(t *testing.T) {
	hand := Stats{Cycles: 10, Committed: 7, ExecTimes: [4]uint64{4, 3, 2, 1}}.Minus(
		Stats{Cycles: 4, Committed: 2, ExecTimes: [4]uint64{1, 1, 1, 1}})
	if hand != (Stats{Cycles: 6, Committed: 5, ExecTimes: [4]uint64{3, 2, 1, 0}}) {
		t.Fatalf("Minus = %+v", hand)
	}

	a, b := distinctStats(1000), distinctStats(1)
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Uint64 && f.Uint() == 0 || f.Kind() == reflect.Array && f.Index(f.Len()-1).Uint() == 0 {
			t.Errorf("the counter walk never reached Stats.%s", v.Type().Field(i).Name)
		}
	}

	va, vb := StatsValues(a), StatsValues(b)
	check := func(what string, got Stats, want func(i int) float64) {
		t.Helper()
		for i, g := range StatsValues(got) {
			if w := want(i); g != w {
				t.Errorf("%s: %s = %v, want %v", what, statsFieldNames[i], g, w)
			}
		}
	}
	check("a.Plus(b)", a.Plus(b), func(i int) float64 { return va[i] + vb[i] })
	check("a.Minus(b)", a.Minus(b), func(i int) float64 { return va[i] - vb[i] })
	check("a.Scale(0.5)", a.Scale(0.5), func(i int) float64 { return math.Round(va[i] * 0.5) })
	if got := a.Plus(b).Minus(b); got != a {
		t.Errorf("a.Plus(b).Minus(b) = %+v, want %+v", got, a)
	}
	if got := a.Scale(1); got != a {
		t.Errorf("a.Scale(1) = %+v, want %+v", got, a)
	}
	if got, want := a.Scale(2), a.Plus(a); got != want {
		t.Errorf("a.Scale(2) = %+v, want a.Plus(a) = %+v", got, want)
	}

	// A counter that went backwards panics, naming that counter.
	for k, name := range StatsFieldNames() {
		later, i := a, -1
		zipStats(&later, &later, func(_ string, x, _ uint64) uint64 {
			i++
			if i == k {
				return x + 1
			}
			return x
		})
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, " "+name+" went backwards") {
					t.Errorf("%s backwards: panic %q does not name the counter", name, msg)
				}
			}()
			_ = a.Minus(later)
		}()
	}
}
