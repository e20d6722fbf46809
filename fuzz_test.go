package vpir

import "testing"

// FuzzRunSource is the end-to-end never-panic contract: whatever source
// text arrives, under any technique, assembling and simulating it must
// either succeed or return an error — never panic, and never run away
// (MaxInsts bounds the run-ahead oracle emulator and the timing run; a tight
// watchdog bounds simulated-time livelock). This is exactly the service's
// exposure: /v1/run executes attacker-shaped configurations against the
// pipeline, so the emulator and simulator must be total functions.
//
// Run the short smoke with `make fuzz-smoke`, or dig deeper with
// `go test -fuzz FuzzRunSource -fuzztime 5m .`.
func FuzzRunSource(f *testing.F) {
	seeds := []struct {
		tech uint8
		src  string
	}{
		{0, ".text\nmain: syscall\n"},
		{1, `
        .text
main:   addiu $t0, $zero, 20
loop:   addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        li    $v0, 10
        syscall
`},
		{2, `
        .data
val:    .word 7
        .text
main:   lw $t1, val
        addu $t2, $t1, $t1
        sw $t2, val
        li $v0, 10
        syscall
`},
		{3, ".text\nmain: jal sub\nli $v0, 10\nsyscall\nsub: jr $ra\n"},
		// An infinite retiring loop: MaxInsts must bound it.
		{1, ".text\nmain: j main\n"},
		{0, "garbage that will not assemble"},
	}
	for _, s := range seeds {
		f.Add(s.tech, s.src)
	}
	techniques := []Technique{Base, VP, IR, Hybrid}
	schemes := []string{"magic", "lvp", "stride"}
	f.Fuzz(func(t *testing.T, tech uint8, src string) {
		opt := Options{
			Technique:      techniques[int(tech)%len(techniques)],
			Scheme:         schemes[int(tech/4)%len(schemes)],
			MaxInsts:       2_000,
			WatchdogCycles: 20_000,
		}
		if tech%2 == 1 {
			opt.BranchResolution = "nsb"
			opt.Reexec = "nme"
			opt.VerifyLatency = 1
			opt.LateValidation = true
		}
		res, err := RunSource("fuzz.s", src, opt)
		if err == nil && res.Committed == 0 {
			t.Fatalf("successful run committed nothing: %+v", res)
		}
	})
}
