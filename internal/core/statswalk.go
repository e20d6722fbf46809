package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// The counter walk. Every Stats field is a monotonically non-decreasing
// uint64 counter or a fixed array of them. statsCounters locates each
// counter once, by reflection, and every counter-wise operation (Minus,
// Plus, Scale, the observer's flattening) goes through zipStats, so a
// counter added to Stats reaches all of them without being listed
// anywhere. A field of any other type panics at package initialisation.

// statsCounter locates one counter: a uint64 field of Stats, or one element
// of a uint64 array field.
type statsCounter struct {
	field int // index of the Stats field
	elem  int // index into an array field; -1 for a scalar field
}

// statsFieldNames[i] is statsCounters[i]'s snake_case name; array elements
// are 1-indexed (exec_times_1..exec_times_4).
var statsCounters, statsFieldNames = buildStatsCounters()

func buildStatsCounters() (cs []statsCounter, names []string) {
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Type.Kind() == reflect.Uint64:
			cs, names = append(cs, statsCounter{i, -1}), append(names, snakeCase(f.Name))
		case f.Type.Kind() == reflect.Array && f.Type.Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Type.Len(); j++ {
				cs, names = append(cs, statsCounter{i, j}), append(names, fmt.Sprintf("%s_%d", snakeCase(f.Name), j+1))
			}
		default:
			panic("core: Stats." + f.Name + " is not a uint64 counter; teach the counter walk about " + f.Type.String())
		}
	}
	return cs, names
}

// zipStats visits every counter in declaration order and sets a's to
// f(name, a's value, b's value).
func zipStats(a, b *Stats, f func(name string, x, y uint64) uint64) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i, c := range statsCounters {
		x, y := av.Field(c.field), bv.Field(c.field)
		if c.elem >= 0 {
			x, y = x.Index(c.elem), y.Index(c.elem)
		}
		x.SetUint(f(statsFieldNames[i], x.Uint(), y.Uint()))
	}
}

// Minus returns the counter-wise difference s − prev. The difference of two
// snapshots taken from the same run is exactly the activity between them;
// sampled simulation uses this to discard the detailed-warmup region of an
// interval by subtraction. The derived-rate accessors then apply to the
// region as if it had been a run of its own. A counter of prev larger than
// s's is a bug and panics, naming the counter.
func (s Stats) Minus(prev Stats) Stats {
	zipStats(&s, &prev, func(name string, x, y uint64) uint64 {
		if y > x {
			panic(fmt.Sprintf("core: Stats counter %s went backwards (%d - %d)", name, x, y))
		}
		return x - y
	})
	return s
}

// Plus returns the counter-wise sum s + o.
func (s Stats) Plus(o Stats) Stats {
	zipStats(&s, &o, func(_ string, x, y uint64) uint64 { return x + y })
	return s
}

// Scale returns s with every counter multiplied by factor and rounded to
// nearest (sampling's ratio estimator); factor 1 is the identity.
func (s Stats) Scale(factor float64) Stats {
	zipStats(&s, &s, func(_ string, x, _ uint64) uint64 { return uint64(math.Round(float64(x) * factor)) })
	return s
}

// StatsFieldNames returns the snake_cased names of every Stats counter,
// in declaration order (array fields expand to one name per element,
// 1-indexed: exec_times_1..exec_times_4).
func StatsFieldNames() []string {
	return append([]string(nil), statsFieldNames...)
}

// StatsValues flattens s into one float64 per StatsFieldNames entry.
func StatsValues(s Stats) []float64 {
	out := make([]float64, 0, len(statsCounters))
	zipStats(&s, &s, func(_ string, x, _ uint64) uint64 {
		out = append(out, float64(x))
		return x
	})
	return out
}

// snakeCase converts a Go field name like "VPResultPredicted" or
// "ICacheMisses" to "vp_result_predicted" / "i_cache_misses": an
// underscore goes before each upper-case letter that starts a new word
// (follows a lower-case letter, or is followed by one within an acronym).
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		lower := r | 0x20
		isUpper := r >= 'A' && r <= 'Z'
		if isUpper && i > 0 {
			prevLower := name[i-1] >= 'a' && name[i-1] <= 'z'
			nextLower := i+1 < len(name) && name[i+1] >= 'a' && name[i+1] <= 'z'
			if prevLower || nextLower {
				b.WriteByte('_')
			}
		}
		if isUpper {
			b.WriteRune(lower)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
