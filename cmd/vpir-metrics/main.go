// Command vpir-metrics renders the observability exports produced by
// vpir-sim -metrics and vpir-bench -metrics-dir: a per-field summary table
// (min / max / last and a unicode sparkline of the trend) over the sampled
// time series.
//
// Usage:
//
//	vpir-metrics run.series.jsonl              # summarize every field
//	vpir-metrics -fields ipc,rob_occupancy f   # a subset
//	vpir-metrics -rates f                      # per-interval deltas of the counters
//	vpir-metrics -list f                       # just the field names
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/vpir-sim/vpir/internal/obs"
	"github.com/vpir-sim/vpir/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	fields := flag.String("fields", "", "comma-separated field subset to show (default: all)")
	rates := flag.Bool("rates", false, "show per-interval deltas instead of cumulative values")
	list := flag.Bool("list", false, "list the field names and exit")
	width := flag.Int("width", 24, "sparkline width in characters")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "vpir-metrics: need exactly one input file ('-' for stdin)")
		return 2
	}
	in, err := open(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer in.Close()

	series, err := obs.ReadSeriesJSONL(in)
	if err != nil {
		return fail(err)
	}

	if *list {
		for _, f := range series.Fields() {
			fmt.Println(f)
		}
		return 0
	}

	want := selectFields(series.Fields(), *fields)
	if len(want) == 0 {
		return fail(fmt.Errorf("no matching fields (have: %s)", strings.Join(series.Fields(), ", ")))
	}

	cycles := series.Column("cycle")
	title := fmt.Sprintf("%d samples over %d cycles", series.Len(), lastCycle(cycles))
	mode := "cumulative"
	if *rates {
		mode = "per-interval delta"
	}
	tab := &stats.Table{
		ID:      "metrics",
		Title:   fmt.Sprintf("%s (%s)", title, mode),
		Columns: []string{"field", "min", "max", "last", "trend"},
	}
	for _, f := range want {
		col := series.Column(f)
		if *rates {
			col = deltas(col)
		}
		if len(col) == 0 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		tab.AddRow(f, fmtVal(lo), fmtVal(hi), fmtVal(col[len(col)-1]),
			stats.Sparkline(col, *width))
	}
	fmt.Print(tab.String())
	return 0
}

func open(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// selectFields returns the series fields to display, in series order,
// honoring an optional comma-separated subset. "cycle" is the x-axis, not
// a metric, so it is shown only when asked for explicitly.
func selectFields(have []string, subset string) []string {
	if subset == "" {
		out := make([]string, 0, len(have))
		for _, f := range have {
			if f != "cycle" {
				out = append(out, f)
			}
		}
		return out
	}
	wanted := make(map[string]bool)
	for _, f := range strings.Split(subset, ",") {
		wanted[strings.TrimSpace(f)] = true
	}
	var out []string
	for _, f := range have {
		if wanted[f] {
			out = append(out, f)
		}
	}
	return out
}

// deltas converts a cumulative column to per-sample increments; the first
// sample is its own baseline. Gauges simply show their sample-to-sample
// movement.
func deltas(col []float64) []float64 {
	if len(col) == 0 {
		return col
	}
	out := make([]float64, len(col))
	out[0] = col[0]
	for i := 1; i < len(col); i++ {
		out[i] = col[i] - col[i-1]
	}
	return out
}

func lastCycle(cycles []float64) uint64 {
	if len(cycles) == 0 {
		return 0
	}
	return uint64(cycles[len(cycles)-1])
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return stats.F3(v)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "vpir-metrics: %v\n", err)
	return 1
}
