package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/technique"
)

// optionVariants enumerates, per SimOptions field, values that must map to
// distinct machine configurations. Every field of the struct, including
// each knob promoted from the embedded technique.Knobs, must appear here:
// the reflective walk below fails on any field it has no variants for, so
// adding a wire knob without deciding its identity semantics is a
// compile-to-red change.
var optionVariants = map[string][]SimOptions{
	"Technique": {
		{}, {Technique: "ir"}, {Technique: "vp"}, {Technique: "hybrid"},
	},
	"Scheme": {
		{Technique: "vp"}, {Technique: "vp", Knobs: technique.Knobs{Scheme: "lvp"}}, {Technique: "vp", Knobs: technique.Knobs{Scheme: "stride"}},
	},
	"BranchResolution": {
		{Technique: "vp"}, {Technique: "vp", Knobs: technique.Knobs{BranchResolution: "nsb"}},
	},
	"Reexec": {
		{Technique: "vp"}, {Technique: "vp", Knobs: technique.Knobs{Reexec: "nme"}},
	},
	"VerifyLatency": {
		{Technique: "vp"}, {Technique: "vp", Knobs: technique.Knobs{VerifyLatency: 3}},
	},
	"LateValidation": {
		{Technique: "ir"}, {Technique: "ir", Knobs: technique.Knobs{LateValidation: true}},
	},
	"WatchdogCycles": {
		{}, {WatchdogCycles: 12345}, {WatchdogCycles: -1},
	},
}

// TestSimOptionsKeyCoverage is the wire-level companion of the core
// package's reflective Config.Key test: every SimOptions field must (a)
// survive a JSON round-trip unchanged — clients build requests from decoded
// responses, so a lossy field would silently collapse distinct
// configurations — and (b) produce distinct Config.Key values across its
// variants, so the result cache can never alias two different experiments.
func TestSimOptionsKeyCoverage(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(SimOptions{})) {
		if f.Anonymous {
			continue // the embedded Knobs; its promoted fields follow
		}
		name := f.Name
		variants, ok := optionVariants[name]
		if !ok {
			t.Errorf("SimOptions.%s has no entry in optionVariants; decide its cache-identity semantics", name)
			continue
		}
		seen := map[string]SimOptions{}
		for _, o := range variants {
			// JSON round-trip: the wire form must be lossless.
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatalf("%s: marshal %+v: %v", name, o, err)
			}
			var back SimOptions
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("%s: unmarshal %s: %v", name, b, err)
			}
			if back != o {
				t.Errorf("%s: options %+v round-tripped to %+v", name, o, back)
			}
			cfg, err := o.Config()
			if err != nil {
				t.Fatalf("%s: %+v does not map to a config: %v", name, o, err)
			}
			key := cfg.Key()
			if prev, dup := seen[key]; dup {
				t.Errorf("%s: variants %+v and %+v share Config.Key %q", name, prev, o, key)
			}
			seen[key] = o
		}
	}
}

// TestCellIdentityKeyShape pins the full run identity the result cache
// keys on: bench, scale, instruction budget and sampling plan must all
// contribute, on top of the config key coverage proven above.
func TestCellIdentityKeyShape(t *testing.T) {
	base, ir := mustConfig(t, SimOptions{}), mustConfig(t, SimOptions{Technique: "ir"})
	key := runKey("vortex", 1, 20_000, base, nil)
	for name, other := range map[string]string{
		"bench":     runKey("compress", 1, 20_000, base, nil),
		"scale":     runKey("vortex", 2, 20_000, base, nil),
		"max_insts": runKey("vortex", 1, 30_000, base, nil),
		"options":   runKey("vortex", 1, 20_000, ir, nil),
		"sample":    runKey("vortex", 1, 20_000, base, &SampleBlock{Interval: 5_000}),
	} {
		if other == key {
			t.Errorf("run identity ignores %s: %q", name, key)
		}
	}
}

func mustConfig(t *testing.T, o SimOptions) core.Config {
	t.Helper()
	cfg, err := o.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
