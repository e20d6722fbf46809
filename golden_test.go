package vpir

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden snapshots instead of comparing")

// goldenMaxInsts truncates the corpus runs: long enough that every paper
// metric is exercised on real pipeline behavior, short enough that the
// whole benchmarks × registered-techniques corpus stays in tier-1 time
// budgets.
const goldenMaxInsts = 120_000

// goldenConfigs is the corpus axis: every benchmark under every registered
// technique at default knobs, enumerated from the technique registry. The
// label is the registry name, so a newly registered scheme gets corpus
// cells automatically — and TestGoldenCorpusComplete fails until its
// snapshots are generated and committed, so a new scheme can't merge
// unvalidated. The hybrid cells pin the interaction of reuse and
// prediction, which no single-technique cell covers.
type goldenConfig struct {
	Label string
	Opt   Options
}

func goldenConfigs() []goldenConfig {
	var out []goldenConfig
	for _, name := range Techniques() {
		out = append(out, goldenConfig{name, Options{Technique: Technique(name)}})
	}
	return out
}

// goldenRecord pins every paper-relevant number of one (benchmark,
// configuration) cell: the whole Report, the struct the library and the
// wire publish. The simulator is deterministic, so the comparison is exact
// — floats included; encoding/json round-trips float64 exactly.
type goldenRecord struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Report
	ExitCode int `json:"exit_code"`
}

func goldenFrom(bench, label string, r Result) goldenRecord {
	return goldenRecord{Bench: bench, Config: label, Report: r.Report, ExitCode: r.ExitCode}
}

func goldenPath(bench, label string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.json", bench, label))
}

// TestGoldenCorpus locks the paper-relevant numbers of every benchmark
// under base, VP and IR against committed snapshots. Any core change that
// silently shifts IPC, squash counts or hit rates fails here; a deliberate
// change regenerates the corpus with `go test -run TestGoldenCorpus
// -update .` and shows up in review as a readable JSON diff.
func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, bench := range Benchmarks() {
		for _, gc := range goldenConfigs() {
			bench, gc := bench, gc
			t.Run(bench+"/"+gc.Label, func(t *testing.T) {
				t.Parallel()
				opt := gc.Opt
				opt.MaxInsts = goldenMaxInsts
				res, err := RunBenchmark(bench, 1, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := goldenFrom(bench, gc.Label, res)
				path := goldenPath(bench, gc.Label)

				if *updateGolden {
					data, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}

				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test -run TestGoldenCorpus -update .` to create the corpus)", err)
				}
				var want goldenRecord
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got != want {
					t.Errorf("%s/%s drifted from the golden corpus (%s).\n got: %s\nwant: %s\n"+
						"If the change is intentional, regenerate with `go test -run TestGoldenCorpus -update .` and commit the diff.",
						bench, gc.Label, path, mustJSON(got), mustJSON(want))
				}
			})
		}
	}
}

// TestGoldenCorpusComplete fails if a benchmark was added without
// extending the corpus (the per-cell subtests above only check files for
// benchmarks they run, so a stale directory would otherwise go unnoticed).
func TestGoldenCorpusComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("corpus being regenerated")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenCorpus -update .` to create the corpus)", err)
	}
	want := make(map[string]bool)
	for _, bench := range Benchmarks() {
		for _, gc := range goldenConfigs() {
			want[fmt.Sprintf("%s_%s.json", bench, gc.Label)] = true
		}
	}
	got := make(map[string]bool)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			got[e.Name()] = true
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("corpus missing %s", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("corpus has stale file %s", name)
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
