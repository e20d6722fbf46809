package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const loopSrc = `
        .text
main:   li    $t0, 0
        li    $t1, 40
loop:   addiu $t0, $t0, 3
        andi  $t2, $t0, 7
        addiu $t1, $t1, -1
        bnez  $t1, loop
        move  $a0, $t0
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall
`

func sim(args ...string) (stdout, stderr string, code int) {
	var o, e strings.Builder
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

// writeProg writes loopSrc to a fresh path: vpir-sim registers a -file
// program as a benchmark under its path, once per process.
func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "loop.s")
	if err := os.WriteFile(path, []byte(loopSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTechniqueCaseSelectsStatBlocks: the registry resolves technique
// names case-insensitively, so the stat blocks must follow the same rule.
func TestTechniqueCaseSelectsStatBlocks(t *testing.T) {
	for _, tc := range []struct {
		tech string
		want []string
	}{
		{"IR", []string{"reused results"}},
		{"HYBRID", []string{"reused results", "results predicted"}},
		{"Vp_Stride", []string{"results predicted"}},
	} {
		out, errOut, code := sim("-bench", "compress", "-maxinsts", "5000", "-tech", tc.tech)
		if code != 0 {
			t.Fatalf("-tech %s: exit %d: %s", tc.tech, code, errOut)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("-tech %s: output lacks %q:\n%s", tc.tech, w, out)
			}
		}
	}
}

// TestPipetrace draws the diagram, then the stats, for benchmarks and
// -file programs under the NME and late-validation knobs.
func TestPipetrace(t *testing.T) {
	for _, src := range []string{"bench", "file"} {
		for _, tc := range []struct {
			knobs  []string
			config string
		}{
			{[]string{"-tech", "vp", "-reexec", "nme"}, "VP_Magic NME-SB vlat=0"},
			{[]string{"-tech", "ir", "-late"}, "IR late"},
		} {
			t.Run(src+" "+tc.config, func(t *testing.T) {
				args := []string{"-bench", "compress", "-maxinsts", "5000"}
				if src == "file" {
					args = []string{"-file", writeProg(t)}
				}
				args = append(append(args, tc.knobs...), "-pipetrace", "12")
				out, errOut, code := sim(args...)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut)
				}
				if !strings.HasPrefix(out, "cycles ") {
					t.Errorf("output does not open with the diagram:\n%s", out)
				}
				if rows := strings.Count(out, "|\n"); rows != 12 {
					t.Errorf("diagram has %d rows, want 12:\n%s", rows, out)
				}
				if !strings.Contains(out, "\nconfig                "+tc.config+"\n") {
					t.Errorf("stats block missing config %q:\n%s", tc.config, out)
				}
			})
		}
	}
}

// TestPipetraceRejectsSample: a diagram needs one detailed run, so a
// sampling plan is an error rather than silently dropped.
func TestPipetraceRejectsSample(t *testing.T) {
	out, errOut, code := sim("-bench", "compress", "-tech", "ir", "-pipetrace", "10", "-sample", "10")
	if code == 0 {
		t.Fatalf("-pipetrace with -sample succeeded:\n%s", out)
	}
	if !strings.Contains(errOut, "Sample") {
		t.Errorf("stderr does not name the rejected option: %q", errOut)
	}
}
