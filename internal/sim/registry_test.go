package sim

import (
	"strings"
	"testing"
)

// The kind table stands in for the checks a registration API would make:
// lower-case unique names, unique aliases, either a build or a check and fill
// pair, every numeric parameter bound to a ScenarioSpec field of its
// documented type, optional parameters last.
func TestScenarioKindTable(t *testing.T) {
	seen := map[string]string{}
	for _, k := range scenarioKinds {
		if k.Name == "" || k.Name != strings.ToLower(k.Name) {
			t.Errorf("kind name %q must be non-empty lower-case", k.Name)
		}
		if (k.check == nil) != (k.fill == nil) {
			t.Errorf("kind %q sets only one of check and fill", k.Name)
		}
		if (k.build == nil) == (k.check == nil) {
			t.Errorf("kind %q must set either build or check and fill", k.Name)
		}
		if (k.parse == nil) != (k.format == nil) {
			t.Errorf("kind %q overrides only one of parse and format", k.Name)
		}
		for _, n := range append([]string{k.Name}, k.Aliases...) {
			if prev, dup := seen[strings.ToLower(n)]; dup {
				t.Errorf("name %q of kind %q collides with kind %q", n, k.Name, prev)
			}
			seen[strings.ToLower(n)] = k.Name
		}
		optional := false
		for _, p := range k.Params {
			if optional && !p.Optional {
				t.Errorf("kind %q: required param %q follows an optional one", k.Name, p.Name)
			}
			optional = p.Optional
			if k.parse != nil {
				continue
			}
			ip, fp := specField(&ScenarioSpec{}, p.Name)
			if (p.Type == "int") != (ip != nil) || (p.Type == "float") != (fp != nil) {
				t.Errorf("kind %q: param %q (%s) maps to no ScenarioSpec field of its type", k.Name, p.Name, p.Type)
			}
		}
	}
}

// Flag forms and their canonical strings, parsed fields and error texts are
// pinned byte for byte: the response cache keys on String(), and the docs
// and CLI users read the errors.
func TestScenarioSpecCanonicalForms(t *testing.T) {
	const known = "(known: uniform:N, exp:LAMBDA, weibull:SHAPE:SCALE, group:SIZE:LAMBDA, " +
		"burst:N:LAMBDA[:SPREAD], staggered:N:HORIZON, trace:FILE[:SCALE][:resample])"
	for _, tc := range []struct {
		in, want string
		spec     ScenarioSpec
		err      string
	}{
		{in: "uniform:2", want: "uniform:2", spec: ScenarioSpec{Kind: "uniform", Crashes: 2}},
		{in: "exp:0.001", want: "exp:0.001", spec: ScenarioSpec{Kind: "exp", Lambda: 0.001}},
		{in: "exponential:1e-3", want: "exp:0.001", spec: ScenarioSpec{Kind: "exp", Lambda: 0.001}},
		{in: "Exp:2E-3", want: "exp:0.002", spec: ScenarioSpec{Kind: "exp", Lambda: 0.002}},
		{in: "exp: 0.5", want: "exp:0.5", spec: ScenarioSpec{Kind: "exp", Lambda: 0.5}},
		{in: "weibull:1.5:2000", want: "weibull:1.5:2000", spec: ScenarioSpec{Kind: "weibull", Shape: 1.5, Scale: 2000}},
		{in: "group:4:0.001", want: "group:4:0.001", spec: ScenarioSpec{Kind: "group", GroupSize: 4, Lambda: 0.001}},
		{in: "burst:3:0.001:50", want: "burst:3:0.001:50", spec: ScenarioSpec{Kind: "burst", Crashes: 3, Lambda: 0.001, Spread: 50}},
		{in: "burst:3:0.001", want: "burst:3:0.001:0", spec: ScenarioSpec{Kind: "burst", Crashes: 3, Lambda: 0.001}},
		{in: "staggered:2:1000", want: "staggered:2:1000", spec: ScenarioSpec{Kind: "staggered", Crashes: 2, Horizon: 1000}},
		{in: "staggered:0:0", want: "staggered:0:0", spec: ScenarioSpec{Kind: "staggered"}},
		{in: "UNIFORM:0", want: "uniform:0", spec: ScenarioSpec{Kind: "uniform"}},
		{in: " uniform : 3 ", want: "uniform:3", spec: ScenarioSpec{Kind: "uniform", Crashes: 3}},
		{in: "uniform", err: `sim: scenario "uniform" has the wrong arity ` + known},
		{in: "uniform:1:2", err: `sim: scenario "uniform:1:2" has the wrong arity ` + known},
		{in: "weibull:1", err: `sim: scenario "weibull:1" has the wrong arity ` + known},
		{in: "burst:1", err: `sim: scenario "burst:1" has the wrong arity ` + known},
		{in: "burst:1:2:3:4", err: `sim: scenario "burst:1:2:3:4" has the wrong arity ` + known},
		{in: "trace", err: `sim: scenario "trace" has the wrong arity ` + known},
		{in: "trace:", err: `sim: scenario "trace:" has the wrong arity ` + known},
		{in: "exp:x", err: `sim: scenario "exp:x": bad number "x"`},
		{in: "uniform:1.5", err: `sim: scenario "uniform:1.5": bad integer "1.5"`},
		{in: "group:x:1", err: `sim: scenario "group:x:1": bad integer "x"`},
		{in: "burst:1.5:1", err: `sim: scenario "burst:1.5:1": bad integer "1.5"`},
		{in: "bogus:1", err: `sim: unknown scenario kind "bogus" ` + known},
		{in: "", err: `sim: unknown scenario kind "" ` + known},
		{in: "exp:0", err: "sim: non-positive failure rate 0"},
		{in: "uniform:-1", err: "sim: uniform scenario needs crashes >= 0, got -1"},
		{in: "group:0:1", err: "sim: group scenario needs group_size >= 1, got 0"},
		{in: "burst:2:0.5:-1", err: "sim: negative burst spread -1"},
		{in: "staggered:1:0", err: "sim: non-positive horizon 0"},
	} {
		sp, err := ParseScenarioSpec(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseScenarioSpec(%q) error = %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseScenarioSpec(%q): %v", tc.in, err)
			continue
		}
		if sp != tc.spec || sp.String() != tc.want {
			t.Errorf("ParseScenarioSpec(%q) = %+v (%q), want %+v (%q)", tc.in, sp, sp.String(), tc.spec, tc.want)
		}
	}
}

// Any accepted flag form re-parses from its own canonical string to an equal
// spec with an equal string. The trace kind is skipped: its parser reads
// files.
func FuzzScenarioSpecRoundTrip(f *testing.F) {
	for _, s := range []string{
		"uniform:2", "exp:0.001", "exponential:1e-3", "weibull:1.5:2000", "group:4:0.001",
		"burst:3:0.001:50", "burst:3:0.001", "staggered:2:1000", "staggered:0:-0", "exp:NaN",
		"trace:failures.jsonl",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseScenarioSpec(in)
		if err != nil || sp.Kind == "trace" {
			return
		}
		s := sp.String()
		again, err := ParseScenarioSpec(s)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose string %q does not re-parse: %v", in, sp, s, err)
		}
		if again != sp || again.String() != s {
			t.Fatalf("%q: round trip changed the spec: %+v (%q) -> %+v (%q)", in, sp, s, again, again.String())
		}
	})
}
