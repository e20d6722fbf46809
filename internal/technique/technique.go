// Package technique is the registry of redundancy-exploiting techniques:
// every named machine variant the simulator can build — the paper's base,
// VP, IR and hybrid machines plus the extension predictors and arbitration
// policies — registers here with the knobs it consumes, and every consumer
// of a technique name (the public vpir.Options, the HTTP wire options, the
// CLI flags) resolves through this package.
//
// The registry is the single source of truth for technique and knob
// spellings. Resolution is strict: an unknown name is an error (never a
// silent fallback to base), and a knob a technique does not consume is an
// error too, so a request that misspells "scheme" can not quietly run a
// different machine than the caller intended.
//
// Adding a scheme:
//
//  1. Implement the predictor/buffer behind internal/core's techOps hooks
//     (for a VPT scheme, extend internal/vp and its snapshot).
//  2. Register the named technique in this package's init.
//  3. Run `go test -run TestGoldenCorpus -update .` — the golden corpus
//     auto-enumerates registered techniques, and its completeness check
//     fails any registered name without a committed snapshot.
//
// The differential, Reset-determinism and checkpoint round-trip test
// layers enumerate Names() too, so a registered technique inherits the
// whole validation battery; see docs/techniques.md for the obligations.
package technique

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/vp"
)

// Knobs are the free parameters a caller may set alongside a technique
// name. The zero value is every technique's default. Techniques reject
// knobs they do not consume (a base machine with a "scheme" is a caller
// error, not a machine). The public vpir.Options and the HTTP wire options
// both embed this struct, so the JSON tags are the wire spelling.
type Knobs struct {
	// Scheme selects the VPT scheme for the value-predicting techniques:
	// "magic" (default), "lvp", "stride", "2delta" or "fcm".
	Scheme string `json:"scheme,omitempty"`
	// BranchResolution is "sb" (default) or "nsb" (§4.1.4).
	BranchResolution string `json:"branch_resolution,omitempty"`
	// Reexec is "me" (default) or "nme" (§4.1.4).
	Reexec string `json:"reexec,omitempty"`
	// VerifyLatency is the VP-verification latency in cycles.
	VerifyLatency int `json:"verify_latency,omitempty"`
	// LateValidation defers reuse benefits to execute (Figure 3 "late").
	LateValidation bool `json:"late_validation,omitempty"`
}

// Technique is one registered machine variant.
type Technique struct {
	// Name is the registry key: lower-case, stable, used in wire requests,
	// CLI flags and golden-corpus file names.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Configure maps the knobs onto a machine configuration, rejecting
	// knobs the technique does not consume.
	Configure func(Knobs) (core.Config, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Technique{}
)

// Register adds a technique; it panics on an empty or duplicate name
// (registration is a program-integrity invariant, not a runtime input).
func Register(t Technique) {
	if t.Name == "" || t.Configure == nil {
		panic("technique: Register needs a name and a Configure func")
	}
	if t.Name != strings.ToLower(t.Name) {
		panic(fmt.Sprintf("technique: name %q must be lower-case", t.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[t.Name]; dup {
		panic(fmt.Sprintf("technique: duplicate registration of %q", t.Name))
	}
	registry[t.Name] = t
}

// Lookup finds a registered technique by name (case-insensitive; the empty
// name is "base").
func Lookup(name string) (Technique, bool) {
	key := strings.ToLower(name)
	if key == "" {
		key = "base"
	}
	mu.RLock()
	defer mu.RUnlock()
	t, ok := registry[key]
	return t, ok
}

// Names lists the registered technique names, sorted for determinism.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All lists the registered techniques in Names() order.
func All() []Technique {
	names := Names()
	out := make([]Technique, 0, len(names))
	for _, n := range names {
		t, _ := Lookup(n)
		out = append(out, t)
	}
	return out
}

// Resolve maps a technique name plus knobs onto a validated machine
// configuration. Unknown names and unconsumed knobs are errors.
func Resolve(name string, k Knobs) (core.Config, error) {
	t, ok := Lookup(name)
	if !ok {
		return core.Config{}, fmt.Errorf("vpir: unknown technique %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	cfg, err := t.Configure(k)
	if err != nil {
		return core.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// ParseScheme maps a scheme spelling onto the vp.Scheme enum ("" = magic).
func ParseScheme(s string) (vp.Scheme, error) {
	switch strings.ToLower(s) {
	case "", "magic":
		return vp.Magic, nil
	case "lvp":
		return vp.LVP, nil
	case "stride":
		return vp.Stride, nil
	case "2delta", "twodelta":
		return vp.TwoDelta, nil
	case "fcm":
		return vp.FCM, nil
	}
	return 0, fmt.Errorf("vpir: unknown scheme %q (magic, lvp, stride, 2delta or fcm)", s)
}

// SchemeName is the canonical knob spelling of a vp.Scheme.
func SchemeName(s vp.Scheme) string {
	switch s {
	case vp.LVP:
		return "lvp"
	case vp.Stride:
		return "stride"
	case vp.TwoDelta:
		return "2delta"
	case vp.FCM:
		return "fcm"
	}
	return "magic"
}

func parseResolution(s string) (core.BranchResolution, error) {
	switch strings.ToLower(s) {
	case "", "sb":
		return core.SB, nil
	case "nsb":
		return core.NSB, nil
	}
	return 0, fmt.Errorf("vpir: unknown branch resolution %q (sb or nsb)", s)
}

func parseReexec(s string) (core.ReexecPolicy, error) {
	switch strings.ToLower(s) {
	case "", "me":
		return core.ME, nil
	case "nme":
		return core.NME, nil
	}
	return 0, fmt.Errorf("vpir: unknown reexec policy %q (me or nme)", s)
}

// rejectVPKnobs fails when VP-only knobs were set for a technique that
// never consults the value predictor — silently ignoring them would run a
// different machine than the caller asked for.
func rejectVPKnobs(name string, k Knobs) error {
	switch {
	case k.Scheme != "":
		return fmt.Errorf("vpir: technique %q does not take a scheme (got %q)", name, k.Scheme)
	case k.BranchResolution != "":
		return fmt.Errorf("vpir: technique %q does not take a branch resolution (got %q)", name, k.BranchResolution)
	case k.Reexec != "":
		return fmt.Errorf("vpir: technique %q does not take a reexec policy (got %q)", name, k.Reexec)
	case k.VerifyLatency != 0:
		return fmt.Errorf("vpir: technique %q does not take a verify latency (got %d)", name, k.VerifyLatency)
	}
	return nil
}

// rejectIRKnobs fails when IR-only knobs were set for a technique with no
// reuse buffer.
func rejectIRKnobs(name string, k Knobs) error {
	if k.LateValidation {
		return fmt.Errorf("vpir: technique %q does not take late validation", name)
	}
	return nil
}

// vpKnobs parses the knobs the VP-family techniques share. pinned, when
// non-negative, fixes the scheme: the Scheme knob must then be empty or
// spell the pinned scheme.
func vpKnobs(name string, k Knobs, pinned vp.Scheme, hasPin bool) (vp.Scheme, core.BranchResolution, core.ReexecPolicy, error) {
	scheme, err := ParseScheme(k.Scheme)
	if err != nil {
		return 0, 0, 0, err
	}
	if hasPin {
		if k.Scheme != "" && scheme != pinned {
			return 0, 0, 0, fmt.Errorf("vpir: technique %q pins scheme %q (got %q)",
				name, SchemeName(pinned), k.Scheme)
		}
		scheme = pinned
	}
	res, err := parseResolution(k.BranchResolution)
	if err != nil {
		return 0, 0, 0, err
	}
	re, err := parseReexec(k.Reexec)
	if err != nil {
		return 0, 0, 0, err
	}
	if k.VerifyLatency < 0 {
		return 0, 0, 0, fmt.Errorf("vpir: negative verify latency %d", k.VerifyLatency)
	}
	return scheme, res, re, nil
}

// registerVP registers a value-prediction technique; pinning a scheme makes
// it a first-class registry entry the golden corpus enumerates on its own.
func registerVP(name, desc string, pinned vp.Scheme, hasPin bool) {
	Register(Technique{Name: name, Desc: desc, Configure: func(k Knobs) (core.Config, error) {
		if err := rejectIRKnobs(name, k); err != nil {
			return core.Config{}, err
		}
		scheme, res, re, err := vpKnobs(name, k, pinned, hasPin)
		if err != nil {
			return core.Config{}, err
		}
		return core.VPChoice(scheme, res, re, k.VerifyLatency), nil
	}})
}

func registerHybrid(name, desc string, arb core.HybridPolicy) {
	Register(Technique{Name: name, Desc: desc, Configure: func(k Knobs) (core.Config, error) {
		scheme, res, re, err := vpKnobs(name, k, 0, false)
		if err != nil {
			return core.Config{}, err
		}
		cfg := core.HybridChoice(scheme, res, re, k.VerifyLatency)
		cfg.HybridArb = arb
		cfg.IR.LateValidation = k.LateValidation
		return cfg, nil
	}})
}

func init() {
	Register(Technique{
		Name: "base",
		Desc: "4-way out-of-order superscalar, no redundancy technique (Table 1)",
		Configure: func(k Knobs) (core.Config, error) {
			if err := rejectVPKnobs("base", k); err != nil {
				return core.Config{}, err
			}
			if err := rejectIRKnobs("base", k); err != nil {
				return core.Config{}, err
			}
			return core.DefaultConfig(), nil
		},
	})
	Register(Technique{
		Name: "ir",
		Desc: "instruction reuse, scheme S(n+d) (Figure 1(b))",
		Configure: func(k Knobs) (core.Config, error) {
			if err := rejectVPKnobs("ir", k); err != nil {
				return core.Config{}, err
			}
			return core.IRChoice(k.LateValidation), nil
		},
	})
	registerVP("vp", "value prediction, scheme selectable (Figure 1(a))", 0, false)
	registerVP("vp_stride",
		"value prediction with the eager stride predictor", vp.Stride, true)
	registerVP("vp_2delta",
		"value prediction with the 2-delta stride predictor (stride adopted on repeat)", vp.TwoDelta, true)
	registerVP("vp_fcm",
		"value prediction with the two-level finite-context-method predictor", vp.FCM, true)
	registerHybrid("hybrid",
		"IR first, VP on reuse misses (serial arbitration)", core.HybridSerial)
	registerHybrid("hybrid_conf",
		"IR first, VP on reuse misses only at saturated confidence", core.HybridConf)
}
