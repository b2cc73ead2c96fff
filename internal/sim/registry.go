package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// ScenarioParam documents one parameter of a scenario kind — the
// self-describing schema the GET /scenarios discovery endpoint and the
// generated docs table render. Name is the wire field of ScenarioSpec the
// parameter travels in; for a numeric kind it also addresses the field the
// flag form fills and the canonical string prints (see specField).
type ScenarioParam struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // "int", "float", "bool" or "events"
	Doc      string `json:"doc"`
	Optional bool   `json:"optional,omitempty"`
}

// ScenarioKindReg is one row of the scenario-kind table: the kind's identity
// and documentation, served as-is by GET /scenarios, plus the behaviors every
// dispatch site needs — parsing the colon-separated flag form, rendering the
// canonical string (which response caches key on, so it must be
// deterministic), checking a spec and drawing its scenarios.
type ScenarioKindReg struct {
	// Name is the canonical lower-case kind name ("uniform", "trace", ...).
	Name string `json:"name"`
	// Aliases are alternative names accepted case-insensitively ("exp" has
	// alias "exponential").
	Aliases []string `json:"aliases,omitempty"`
	// Summary is the one-line description used by discovery and docs.
	Summary string `json:"summary"`
	// FlagForm is the colon-separated syntax, e.g. "burst:N:LAMBDA[:SPREAD]".
	FlagForm string `json:"flag_form"`
	// Params documents the spec fields the kind reads, in flag-form order.
	Params []ScenarioParam `json:"params"`

	// parse and format override the Params-driven flag form and canonical
	// string; only a kind whose parameters are not numbers sets them.
	parse  func(spec string, args []string) (ScenarioSpec, error)
	format func(sp ScenarioSpec) string
	// check validates the spec's parameters and, when m > 0, that they fit
	// a platform of m processors; fill overwrites sc, whose length has
	// passed check, with one drawn scenario. ScenarioSpec.Generator binds a
	// numeric kind's pair to the spec.
	check func(sp ScenarioSpec, m int) error
	fill  func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch)
	// build replaces check and fill with a generator of the kind's own:
	// trace sets it to group its incidents once, not per trial.
	build func(sp ScenarioSpec) (ScenarioGenerator, error)
}

// scenarioKinds is the scenario-kind table, in the order discovery, docs and
// errors list it. It is assigned in init because the parsers' errors list
// the table itself.
var scenarioKinds []ScenarioKindReg

// lookupScenarioKind resolves a kind name or alias (case-insensitively); nil
// when the kind is unknown.
func lookupScenarioKind(name string) *ScenarioKindReg {
	for i := range scenarioKinds {
		k := &scenarioKinds[i]
		if strings.EqualFold(k.Name, name) {
			return k
		}
		for _, a := range k.Aliases {
			if strings.EqualFold(a, name) {
				return k
			}
		}
	}
	return nil
}

// ScenarioKindRegs lists the table's rows in order — the capability surface
// the /scenarios endpoint and docs table are generated from.
func ScenarioKindRegs() []ScenarioKindReg { return slices.Clone(scenarioKinds) }

// ScenarioKinds lists the recognized scenario kinds with their flag syntax,
// in table order — the list unknown-kind errors enumerate.
func ScenarioKinds() []string {
	out := make([]string, len(scenarioKinds))
	for i, k := range scenarioKinds {
		out[i] = k.FlagForm
	}
	return out
}

// specField addresses the ScenarioSpec field a numeric parameter travels in:
// exactly one of the results is non-nil for a known name, both are nil
// otherwise.
func specField(sp *ScenarioSpec, name string) (*int, *float64) {
	switch name {
	case "crashes":
		return &sp.Crashes, nil
	case "group_size":
		return &sp.GroupSize, nil
	case "lambda":
		return nil, &sp.Lambda
	case "shape":
		return nil, &sp.Shape
	case "scale":
		return nil, &sp.Scale
	case "horizon":
		return nil, &sp.Horizon
	case "spread":
		return nil, &sp.Spread
	}
	return nil, nil
}

// parseArgs builds a spec from the flag form's arguments (the parts after
// the kind); spec is the full original string, for error messages. A numeric
// kind takes its required parameters, then any optional ones, in Params
// order.
func (k *ScenarioKindReg) parseArgs(spec string, args []string) (ScenarioSpec, error) {
	if k.parse != nil {
		return k.parse(spec, args)
	}
	required := 0
	for _, p := range k.Params {
		if !p.Optional {
			required++
		}
	}
	if len(args) < required || len(args) > len(k.Params) {
		return ScenarioSpec{}, wrongScenarioArity(spec)
	}
	sp := ScenarioSpec{Kind: k.Name}
	for i, arg := range args {
		var err error
		if ip, fp := specField(&sp, k.Params[i].Name); ip != nil {
			*ip, err = specAtoi(spec, arg)
		} else {
			*fp, err = specAtof(spec, arg)
		}
		if err != nil {
			return ScenarioSpec{}, err
		}
	}
	return sp, nil
}

// formatSpec renders the canonical string: for a numeric kind the name, then
// every parameter (optional ones included) as decimal ints and
// shortest-exact floats, so equal specs render byte-identically.
func (k *ScenarioKindReg) formatSpec(sp ScenarioSpec) string {
	if k.format != nil {
		return k.format(sp)
	}
	var buf [64]byte
	b := append(buf[:0], k.Name...)
	for _, p := range k.Params {
		b = append(b, ':')
		if ip, fp := specField(&sp, p.Name); ip != nil {
			b = strconv.AppendInt(b, int64(*ip), 10)
		} else {
			b = strconv.AppendFloat(b, *fp, 'g', -1, 64)
		}
	}
	return string(b)
}

// unknownScenarioKind is the shared unknown-kind error; like scheduler
// lookup errors it enumerates the table so the list is never stale.
func unknownScenarioKind(kind string) error {
	return fmt.Errorf("sim: unknown scenario kind %q (known: %s)",
		kind, strings.Join(ScenarioKinds(), ", "))
}

// wrongScenarioArity is the shared arity error of flag-form parsing.
func wrongScenarioArity(spec string) error {
	return fmt.Errorf("sim: scenario %q has the wrong arity (known: %s)",
		spec, strings.Join(ScenarioKinds(), ", "))
}

// specAtoi and specAtof parse one flag-form argument with the spec string in
// the error. specAtof refuses NaN and ±Inf: every comparison against NaN is
// false, so a NaN rate or horizon would silently mean "no failures".
func specAtoi(spec, arg string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return 0, fmt.Errorf("sim: scenario %q: bad integer %q", spec, arg)
	}
	return v, nil
}

func specAtof(spec, arg string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sim: scenario %q: bad number %q", spec, arg)
	}
	return v, nil
}

// fg formats a float in shortest-exact form — the canonical rendering equal
// specs share (the property the response cache keys on).
func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fitCrashes is the platform fit of a kind crashing n distinct processors.
func fitCrashes(n, m int) error {
	if m > 0 && n > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", n, m)
	}
	return nil
}

// positiveRate refuses a failure rate that would mean "no failures".
func positiveRate(lambda float64) error {
	if lambda <= 0 {
		return fmt.Errorf("sim: non-positive failure rate %g", lambda)
	}
	return nil
}

func init() {
	scenarioKinds = []ScenarioKindReg{{
		Name:     "uniform",
		Summary:  "N distinct uniformly drawn processors crash at time 0 (the paper's adversarial crash experiments)",
		FlagForm: "uniform:N",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors crashed at time 0"},
		},
		check: func(sp ScenarioSpec, m int) error {
			if sp.Crashes < 0 {
				return fmt.Errorf("sim: uniform scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			return fitCrashes(sp.Crashes, m)
		},
		// The paper: "processors that fail during the schedule process are
		// chosen uniformly"; the batch form of UniformCrashes.
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) {
			resetAlive(sc)
			for _, p := range drawDistinct(rng, scratch, len(sc.CrashTime), sp.Crashes) {
				sc.CrashTime[p] = 0
			}
		},
	}, {
		Name:     "exp",
		Aliases:  []string{"exponential"},
		Summary:  "independent exponential lifetime with rate LAMBDA per processor (the reliability package's failure law)",
		FlagForm: "exp:LAMBDA",
		Params: []ScenarioParam{
			{Name: "lambda", Type: "float", Doc: "failure rate; mean lifetime is 1/lambda"},
		},
		check: func(sp ScenarioSpec, _ int) error { return positiveRate(sp.Lambda) },
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) {
			for p := range sc.CrashTime {
				sc.CrashTime[p] = rng.ExpFloat64() / sp.Lambda
			}
		},
	}, {
		Name:     "weibull",
		Summary:  "independent Weibull(SHAPE, SCALE) lifetimes — infant mortality below shape 1, wear-out above",
		FlagForm: "weibull:SHAPE:SCALE",
		Params: []ScenarioParam{
			{Name: "shape", Type: "float", Doc: "Weibull shape k; 1 degenerates to exponential"},
			{Name: "scale", Type: "float", Doc: "Weibull scale (characteristic lifetime)"},
		},
		check: func(sp ScenarioSpec, _ int) error {
			if sp.Shape <= 0 || sp.Scale <= 0 {
				return fmt.Errorf("sim: Weibull shape and scale must be positive, got k=%g λ=%g", sp.Shape, sp.Scale)
			}
			return nil
		},
		// Inverse transform: Scale · E^(1/Shape) with E standard
		// exponential, so shape 1 draws exactly what exp:1/Scale draws.
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) {
			inv := 1 / sp.Shape
			for p := range sc.CrashTime {
				sc.CrashTime[p] = sp.Scale * math.Pow(rng.ExpFloat64(), inv)
			}
		},
	}, {
		Name:     "group",
		Summary:  "one uniformly drawn rack of SIZE consecutive processors fails together at an exponential time",
		FlagForm: "group:SIZE:LAMBDA",
		Params: []ScenarioParam{
			{Name: "group_size", Type: "int", Doc: "rack size; group g covers processors [g*size, (g+1)*size)"},
			{Name: "lambda", Type: "float", Doc: "failure rate of the rack's crash time"},
		},
		check: func(sp ScenarioSpec, m int) error {
			if sp.GroupSize < 1 {
				return fmt.Errorf("sim: group scenario needs group_size >= 1, got %d", sp.GroupSize)
			}
			if err := positiveRate(sp.Lambda); err != nil {
				return err
			}
			if m > 0 && sp.GroupSize > m {
				return fmt.Errorf("sim: group size %d exceeds platform of %d processors", sp.GroupSize, m)
			}
			return nil
		},
		// A power feed or top-of-rack switch takes the whole rack down at
		// once; the last rack may be short.
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) {
			m := len(sc.CrashTime)
			resetAlive(sc)
			groups := (m + sp.GroupSize - 1) / sp.GroupSize
			grp := rng.Intn(groups)
			at := rng.ExpFloat64() / sp.Lambda
			hi := (grp + 1) * sp.GroupSize
			if hi > m {
				hi = m
			}
			for p := grp * sp.GroupSize; p < hi; p++ {
				sc.CrashTime[p] = at
			}
		},
	}, {
		Name:     "burst",
		Summary:  "N processors crash in a burst: exponential onset plus uniform jitter in [0, SPREAD) per crash",
		FlagForm: "burst:N:LAMBDA[:SPREAD]",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors in the burst"},
			{Name: "lambda", Type: "float", Doc: "failure rate of the burst onset"},
			{Name: "spread", Type: "float", Doc: "per-crash jitter width; 0 crashes all at one instant", Optional: true},
		},
		check: func(sp ScenarioSpec, m int) error {
			if sp.Crashes < 0 {
				return fmt.Errorf("sim: burst scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			if err := positiveRate(sp.Lambda); err != nil {
				return err
			}
			if sp.Spread < 0 {
				return fmt.Errorf("sim: negative burst spread %g", sp.Spread)
			}
			return fitCrashes(sp.Crashes, m)
		},
		// A cascading outage (thermal event, bad rollout) rather than
		// independent attrition.
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) {
			resetAlive(sc)
			onset := rng.ExpFloat64() / sp.Lambda
			for _, p := range drawDistinct(rng, scratch, len(sc.CrashTime), sp.Crashes) {
				at := onset
				if sp.Spread > 0 {
					at += rng.Float64() * sp.Spread
				}
				sc.CrashTime[p] = at
			}
		},
	}, {
		Name:     "staggered",
		Summary:  "rolling outage: N processors crash at evenly spaced times across [0, HORIZON]",
		FlagForm: "staggered:N:HORIZON",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors crashed across the window"},
			{Name: "horizon", Type: "float", Doc: "rolling-outage window; crash i lands at (i+1)*horizon/(n+1)"},
		},
		check: func(sp ScenarioSpec, m int) error {
			if sp.Crashes < 0 {
				return fmt.Errorf("sim: staggered scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			if sp.Horizon <= 0 && sp.Crashes > 0 {
				return fmt.Errorf("sim: non-positive horizon %g", sp.Horizon)
			}
			return fitCrashes(sp.Crashes, m)
		},
		// No processor is dead at time zero.
		fill: func(sp ScenarioSpec, rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) {
			resetAlive(sc)
			for i, p := range drawDistinct(rng, scratch, len(sc.CrashTime), sp.Crashes) {
				sc.CrashTime[p] = sp.Horizon * float64(i+1) / float64(sp.Crashes+1)
			}
		},
	}, traceScenarioKind()}
}
