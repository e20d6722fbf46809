package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HM(nil) = %v", got)
	}
	if got := HarmonicMean([]float64{2, 2, 2}); got != 2 {
		t.Errorf("HM(2,2,2) = %v", got)
	}
	got := HarmonicMean([]float64{1, 2})
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("HM(1,2) = %v", got)
	}
	if got := HarmonicMean([]float64{1, 0}); got != 0 {
		t.Errorf("HM with zero = %v, want 0", got)
	}
	if got := HarmonicMean([]float64{1, -1}); got != 0 {
		t.Errorf("HM with negative = %v, want 0", got)
	}
}

// Property: HM <= arithmetic mean for positive inputs.
func TestHarmonicMeanBound(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		hm := HarmonicMean(xs)
		am := (xs[0] + xs[1] + xs[2]) / 3
		return hm > 0 && hm <= am+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "t1", Title: "demo", Columns: []string{"bench", "value"}}
	tab.AddRow("go", "1.23")
	tab.AddRow("m88ksim", "45.6")
	tab.Note("a note with %d", 7)
	out := tab.String()
	for _, want := range []string{"t1 — demo", "bench", "m88ksim", "45.6", "note: a note with 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Numeric columns are right-aligned: "1.23" should appear padded.
	lines := strings.Split(out, "\n")
	var goLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "go") {
			goLine = l
		}
	}
	if !strings.HasSuffix(goLine, " 1.23") {
		t.Errorf("value column not right-aligned: %q", goLine)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.26) != "1.3" || F2(1.267) != "1.27" || F3(1.2345) != "1.234" || N(42) != "42" {
		t.Error("formatter output changed")
	}
}

func TestTableEmptyRows(t *testing.T) {
	tab := &Table{ID: "t0", Title: "empty", Columns: []string{"a", "b"}}
	out := tab.String()
	if !strings.Contains(out, "t0 — empty") || !strings.Contains(out, "a") {
		t.Errorf("empty table render broken:\n%s", out)
	}
	// No rows means header, rule, nothing else.
	if n := strings.Count(out, "\n"); n != 3 {
		t.Errorf("empty table has %d lines, want 3 (title, header, rule):\n%s", n, out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := &Table{ID: "t1", Title: "ragged", Columns: []string{"bench", "ipc", "speedup"}}
	tab.AddRow("go")                           // fewer cells than columns
	tab.AddRow("gcc", "1.02")                  // fewer cells
	tab.AddRow("perl", "0.98", "1.10", "oops") // more cells than columns
	var out string
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ragged rows panicked: %v", r)
			}
		}()
		out = tab.String()
	}()
	for _, want := range []string{"go", "gcc", "perl", "oops"} {
		if !strings.Contains(out, want) {
			t.Errorf("ragged render missing %q:\n%s", want, out)
		}
	}
}

func TestTableMultiByteRunes(t *testing.T) {
	tab := &Table{ID: "t2", Title: "unicode", Columns: []string{"name", "trend"}}
	tab.AddRow("short", "▁▂▃▄")
	tab.AddRow("a-much-longer-name", "▇█")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All data lines must be the same rune width: sparkline runes count as
	// one column each, not three bytes.
	var widths []int
	for _, l := range lines[1:] { // skip title
		widths = append(widths, len([]rune(l)))
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] != widths[0] {
			t.Errorf("line %d rune width %d != %d; multi-byte cells misaligned:\n%s",
				i, widths[i], widths[0], out)
		}
	}
}

func TestTableNotesOnly(t *testing.T) {
	tab := &Table{ID: "t3", Title: "notes"}
	tab.Note("only a footnote")
	out := tab.String()
	if !strings.Contains(out, "note: only a footnote") {
		t.Errorf("notes-only table lost its note:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("Sparkline(nil) = %q", got)
	}
	up := Sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	if up != "▁▂▃▄▅▆▇█" {
		t.Errorf("ascending ramp = %q", up)
	}
	flat := Sparkline([]float64{5, 5, 5}, 0)
	if flat != "▁▁▁" {
		t.Errorf("flat series = %q", flat)
	}
	// Compression: 100 points into 10 runes, still monotone.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	comp := Sparkline(long, 10)
	if n := len([]rune(comp)); n != 10 {
		t.Errorf("compressed width = %d, want 10 (%q)", n, comp)
	}
	r := []rune(comp)
	for i := 1; i < len(r); i++ {
		if r[i] < r[i-1] {
			t.Errorf("compressed ramp not monotone: %q", comp)
		}
	}
	// Non-finite values render as spaces, finite neighbors survive.
	gap := Sparkline([]float64{1, math.NaN(), 3}, 0)
	if len([]rune(gap)) != 3 || []rune(gap)[1] != ' ' {
		t.Errorf("NaN gap = %q", gap)
	}
}
