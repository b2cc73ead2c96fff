package sim

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// ScenarioParam documents one parameter of a scenario kind — the
// self-describing schema the GET /scenarios discovery endpoint and the
// generated docs table render. Name is the wire field of ScenarioSpec the
// parameter travels in.
type ScenarioParam struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // "int", "float", "bool" or "events"
	Doc      string `json:"doc"`
	Optional bool   `json:"optional,omitempty"`
}

// ScenarioKindReg is one entry of the scenario-kind registry: the kind's
// identity and documentation plus the three behaviors every dispatch site
// needs — parsing the colon-separated flag form, rendering the canonical
// string (which response caches key on, so it must be deterministic), and
// materializing a generator from a spec.
type ScenarioKindReg struct {
	// Name is the canonical lower-case kind name ("uniform", "trace", ...).
	Name string
	// Aliases are alternative names accepted case-insensitively ("exp" has
	// alias "exponential").
	Aliases []string
	// Summary is the one-line description used by discovery and docs.
	Summary string
	// FlagForm is the colon-separated syntax, e.g. "burst:N:LAMBDA[:SPREAD]".
	FlagForm string
	// Params documents the spec fields the kind reads.
	Params []ScenarioParam
	// Parse builds a spec from the flag form's arguments (the parts after
	// the kind). spec is the full original string, for error messages.
	Parse func(spec string, args []string) (ScenarioSpec, error)
	// Format renders the canonical string form. It must be a pure function
	// of the spec: equal specs must render byte-identically.
	Format func(sp ScenarioSpec) string
	// Build materializes the generator, validating platform-independent
	// parameters (counts against m are validated by the generator's Check).
	Build func(sp ScenarioSpec) (ScenarioGenerator, error)
}

// scenarioRegistry is the process-global scenario-kind registry, the same
// shape as the scheduler registry in internal/sched: registration happens at
// init time, lookups after init never write.
var scenarioRegistry struct {
	sync.RWMutex
	order   []string                   // canonical names in registration order
	entries map[string]ScenarioKindReg // canonical name -> entry
	byName  map[string]string          // lower-case name/alias -> canonical name
}

// RegisterScenarioKind adds a scenario kind to the registry. It panics on a
// missing behavior or a name collision — registration happens at init time,
// where a panic is a build error, not a runtime hazard.
func RegisterScenarioKind(k ScenarioKindReg) {
	if k.Name == "" || k.Name != strings.ToLower(k.Name) {
		panic(fmt.Sprintf("sim: scenario kind name %q must be non-empty lower-case", k.Name))
	}
	if k.Parse == nil || k.Format == nil || k.Build == nil {
		panic(fmt.Sprintf("sim: scenario kind %q needs Parse, Format and Build", k.Name))
	}
	r := &scenarioRegistry
	r.Lock()
	defer r.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]ScenarioKindReg)
		r.byName = make(map[string]string)
	}
	if _, dup := r.byName[k.Name]; dup {
		panic(fmt.Sprintf("sim: scenario kind %q registered twice", k.Name))
	}
	r.entries[k.Name] = k
	r.byName[k.Name] = k.Name
	r.order = append(r.order, k.Name)
	for _, a := range k.Aliases {
		a = strings.ToLower(a)
		if _, dup := r.byName[a]; dup {
			panic(fmt.Sprintf("sim: scenario kind alias %q collides", a))
		}
		r.byName[a] = k.Name
	}
}

// LookupScenarioKind resolves a kind name or alias (case-insensitively).
func LookupScenarioKind(name string) (ScenarioKindReg, bool) {
	r := &scenarioRegistry
	r.RLock()
	defer r.RUnlock()
	canon, ok := r.byName[strings.ToLower(name)]
	if !ok {
		return ScenarioKindReg{}, false
	}
	return r.entries[canon], true
}

// ScenarioKindRegs lists the registry entries in registration order — the
// capability surface the /scenarios endpoint and docs table are generated
// from.
func ScenarioKindRegs() []ScenarioKindReg {
	r := &scenarioRegistry
	r.RLock()
	defer r.RUnlock()
	out := make([]ScenarioKindReg, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name])
	}
	return out
}

// ScenarioKinds lists the recognized scenario kinds with their flag syntax,
// in registration order — the list unknown-kind errors enumerate.
func ScenarioKinds() []string {
	r := &scenarioRegistry
	r.RLock()
	defer r.RUnlock()
	out := make([]string, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name].FlagForm)
	}
	return out
}

// unknownScenarioKind is the shared unknown-kind error; like scheduler
// lookup errors it enumerates the registry so the list is never stale.
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
// the error, shared by every kind's Parse.
func specAtoi(spec, arg string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return 0, fmt.Errorf("sim: scenario %q: bad integer %q", spec, arg)
	}
	return v, nil
}

func specAtof(spec, arg string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
	if err != nil {
		return 0, fmt.Errorf("sim: scenario %q: bad number %q", spec, arg)
	}
	return v, nil
}

// fg formats a float in shortest-exact form — the canonical rendering
// Format implementations share so equal specs render identically (the
// property the response cache keys on).
func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func init() {
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "uniform",
		Summary:  "N distinct uniformly drawn processors crash at time 0 (the paper's adversarial crash experiments)",
		FlagForm: "uniform:N",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors crashed at time 0"},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 1 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			n, err := specAtoi(spec, args[0])
			if err != nil {
				return ScenarioSpec{}, err
			}
			return ScenarioSpec{Kind: "uniform", Crashes: n}, nil
		},
		Format: func(sp ScenarioSpec) string { return fmt.Sprintf("uniform:%d", sp.Crashes) },
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			if sp.Crashes < 0 {
				return nil, fmt.Errorf("sim: uniform scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			return UniformGen{N: sp.Crashes}, nil
		},
	})
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "exp",
		Aliases:  []string{"exponential"},
		Summary:  "independent exponential lifetime with rate LAMBDA per processor (the reliability package's failure law)",
		FlagForm: "exp:LAMBDA",
		Params: []ScenarioParam{
			{Name: "lambda", Type: "float", Doc: "failure rate; mean lifetime is 1/lambda"},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 1 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			l, err := specAtof(spec, args[0])
			if err != nil {
				return ScenarioSpec{}, err
			}
			return ScenarioSpec{Kind: "exp", Lambda: l}, nil
		},
		Format: func(sp ScenarioSpec) string { return "exp:" + fg(sp.Lambda) },
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			g := ExponentialGen{Lambda: sp.Lambda}
			if err := g.Check(0); err != nil {
				return nil, err
			}
			return g, nil
		},
	})
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "weibull",
		Summary:  "independent Weibull(SHAPE, SCALE) lifetimes — infant mortality below shape 1, wear-out above",
		FlagForm: "weibull:SHAPE:SCALE",
		Params: []ScenarioParam{
			{Name: "shape", Type: "float", Doc: "Weibull shape k; 1 degenerates to exponential"},
			{Name: "scale", Type: "float", Doc: "Weibull scale (characteristic lifetime)"},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 2 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			shape, err := specAtof(spec, args[0])
			if err != nil {
				return ScenarioSpec{}, err
			}
			scale, err := specAtof(spec, args[1])
			if err != nil {
				return ScenarioSpec{}, err
			}
			return ScenarioSpec{Kind: "weibull", Shape: shape, Scale: scale}, nil
		},
		Format: func(sp ScenarioSpec) string { return "weibull:" + fg(sp.Shape) + ":" + fg(sp.Scale) },
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			g := WeibullGen{Shape: sp.Shape, Scale: sp.Scale}
			if err := g.Check(0); err != nil {
				return nil, err
			}
			return g, nil
		},
	})
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "group",
		Summary:  "one uniformly drawn rack of SIZE consecutive processors fails together at an exponential time",
		FlagForm: "group:SIZE:LAMBDA",
		Params: []ScenarioParam{
			{Name: "group_size", Type: "int", Doc: "rack size; group g covers processors [g*size, (g+1)*size)"},
			{Name: "lambda", Type: "float", Doc: "failure rate of the rack's crash time"},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 2 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			size, err := specAtoi(spec, args[0])
			if err != nil {
				return ScenarioSpec{}, err
			}
			l, err := specAtof(spec, args[1])
			if err != nil {
				return ScenarioSpec{}, err
			}
			return ScenarioSpec{Kind: "group", GroupSize: size, Lambda: l}, nil
		},
		Format: func(sp ScenarioSpec) string {
			return fmt.Sprintf("group:%d:%s", sp.GroupSize, fg(sp.Lambda))
		},
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			if sp.GroupSize < 1 {
				return nil, fmt.Errorf("sim: group scenario needs group_size >= 1, got %d", sp.GroupSize)
			}
			if sp.Lambda <= 0 {
				return nil, fmt.Errorf("sim: non-positive failure rate %g", sp.Lambda)
			}
			return GroupGen{Size: sp.GroupSize, Lambda: sp.Lambda}, nil
		},
	})
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "burst",
		Summary:  "N processors crash in a burst: exponential onset plus uniform jitter in [0, SPREAD) per crash",
		FlagForm: "burst:N:LAMBDA[:SPREAD]",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors in the burst"},
			{Name: "lambda", Type: "float", Doc: "failure rate of the burst onset"},
			{Name: "spread", Type: "float", Doc: "per-crash jitter width; 0 crashes all at one instant", Optional: true},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 2 && len(args) != 3 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			sp := ScenarioSpec{Kind: "burst"}
			var err error
			if sp.Crashes, err = specAtoi(spec, args[0]); err != nil {
				return ScenarioSpec{}, err
			}
			if sp.Lambda, err = specAtof(spec, args[1]); err != nil {
				return ScenarioSpec{}, err
			}
			if len(args) == 3 {
				if sp.Spread, err = specAtof(spec, args[2]); err != nil {
					return ScenarioSpec{}, err
				}
			}
			return sp, nil
		},
		Format: func(sp ScenarioSpec) string {
			return fmt.Sprintf("burst:%d:%s:%s", sp.Crashes, fg(sp.Lambda), fg(sp.Spread))
		},
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			if sp.Crashes < 0 {
				return nil, fmt.Errorf("sim: burst scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			if sp.Lambda <= 0 {
				return nil, fmt.Errorf("sim: non-positive failure rate %g", sp.Lambda)
			}
			if sp.Spread < 0 {
				return nil, fmt.Errorf("sim: negative burst spread %g", sp.Spread)
			}
			return BurstGen{N: sp.Crashes, Lambda: sp.Lambda, Spread: sp.Spread}, nil
		},
	})
	RegisterScenarioKind(ScenarioKindReg{
		Name:     "staggered",
		Summary:  "rolling outage: N processors crash at evenly spaced times across [0, HORIZON]",
		FlagForm: "staggered:N:HORIZON",
		Params: []ScenarioParam{
			{Name: "crashes", Type: "int", Doc: "number of processors crashed across the window"},
			{Name: "horizon", Type: "float", Doc: "rolling-outage window; crash i lands at (i+1)*horizon/(n+1)"},
		},
		Parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) != 2 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			sp := ScenarioSpec{Kind: "staggered"}
			var err error
			if sp.Crashes, err = specAtoi(spec, args[0]); err != nil {
				return ScenarioSpec{}, err
			}
			if sp.Horizon, err = specAtof(spec, args[1]); err != nil {
				return ScenarioSpec{}, err
			}
			return sp, nil
		},
		Format: func(sp ScenarioSpec) string {
			return fmt.Sprintf("staggered:%d:%s", sp.Crashes, fg(sp.Horizon))
		},
		Build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			if sp.Crashes < 0 {
				return nil, fmt.Errorf("sim: staggered scenario needs crashes >= 0, got %d", sp.Crashes)
			}
			if sp.Horizon <= 0 && sp.Crashes > 0 {
				return nil, fmt.Errorf("sim: non-positive horizon %g", sp.Horizon)
			}
			return StaggeredGen{N: sp.Crashes, Horizon: sp.Horizon}, nil
		},
	})
	RegisterScenarioKind(traceScenarioKind())
}
