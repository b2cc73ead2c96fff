package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// ScenarioGenerator draws one failure scenario per trial. Implementations
// write into a caller-owned Scenario and use only the supplied rng and
// scratch, so Evaluate's trial loop stays allocation-free; they must be
// stateless between calls (every trial gets a freshly seeded rng).
type ScenarioGenerator interface {
	// Check validates the generator against a platform of m processors
	// (e.g. "cannot crash 5 of 3"). Evaluate calls it once up front.
	Check(m int) error
	// FillScenario overwrites sc — whose CrashTime must already have
	// length m — with one drawn scenario.
	FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error
	// Spec returns the canonical serializable description of the generator.
	Spec() ScenarioSpec
}

// ScenarioScratch is the reusable temporary storage of a generator. The zero
// value is ready; capacity grows to the platform size on first use.
type ScenarioScratch struct {
	perm []int
}

// drawDistinct returns n distinct processors drawn uniformly from [0, m) by
// a partial Fisher-Yates shuffle over scratch storage. The returned slice
// aliases the scratch and is valid until the next call.
func drawDistinct(rng *rand.Rand, scratch *ScenarioScratch, m, n int) []int {
	p := scratch.perm
	if cap(p) < m {
		p = make([]int, m)
	}
	p = p[:m]
	for i := range p {
		p[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(m-i)
		p[i], p[j] = p[j], p[i]
	}
	scratch.perm = p
	return p[:n]
}

// resetAlive marks every processor of sc as never failing.
func resetAlive(sc *Scenario) {
	for i := range sc.CrashTime {
		sc.CrashTime[i] = math.Inf(1)
	}
}

// kindGen is a numeric kind's row bound to one spec, Kind canonical: the
// generator ScenarioSpec.Generator returns for every kind but trace.
type kindGen struct {
	kind *ScenarioKindReg
	spec ScenarioSpec
}

// Check implements ScenarioGenerator.
func (g *kindGen) Check(m int) error { return g.kind.check(g.spec, m) }

// FillScenario implements ScenarioGenerator.
func (g *kindGen) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
	if err := g.Check(len(sc.CrashTime)); err != nil {
		return err
	}
	g.kind.fill(g.spec, rng, sc, scratch)
	return nil
}

// Spec implements ScenarioGenerator.
func (g *kindGen) Spec() ScenarioSpec { return g.spec }

// ScenarioSpec is the wire/flag description of a scenario generator — the
// shape the /evaluate endpoint, the ftexp campaign axis and ftsched
// -scenario share. Only the fields the Kind uses are meaningful; Generator
// rejects inconsistent specs. Kind dispatch (parsing, canonical rendering,
// materialization) goes through the scenario-kind table (registry.go).
type ScenarioSpec struct {
	// Kind selects the generator by table name: "uniform", "exp",
	// "weibull", "group", "burst", "staggered" or "trace".
	Kind string `json:"kind"`
	// Crashes is the crash count of "uniform", "burst" and "staggered".
	Crashes int `json:"crashes,omitempty"`
	// Lambda is the failure rate of "exp", "group" and "burst".
	Lambda float64 `json:"lambda,omitempty"`
	// Shape and Scale parameterize "weibull".
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// GroupSize is the rack size of "group".
	GroupSize int `json:"group_size,omitempty"`
	// Horizon is the rolling-outage window of "staggered".
	Horizon float64 `json:"horizon,omitempty"`
	// Spread is the per-crash jitter width of "burst".
	Spread float64 `json:"spread,omitempty"`
	// Trace carries the recorded failure log of "trace"; nil for the
	// synthetic kinds, so legacy wire forms are byte-unchanged.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// Generator materializes the spec, validating its platform-independent
// parameters (counts are validated against m by the generator's Check). The
// kind is looked up here, once, so no trial reads the table.
func (sp ScenarioSpec) Generator() (ScenarioGenerator, error) {
	if sp.Kind == "" {
		return nil, fmt.Errorf("sim: scenario spec missing kind (known: %s)", strings.Join(ScenarioKinds(), ", "))
	}
	k := lookupScenarioKind(sp.Kind)
	if k == nil {
		return nil, unknownScenarioKind(sp.Kind)
	}
	if k.build != nil {
		return k.build(sp)
	}
	if err := k.check(sp, 0); err != nil {
		return nil, err
	}
	sp.Kind = k.Name
	return &kindGen{kind: k, spec: sp}, nil
}

// String renders the spec in the kind's canonical colon-separated form, with
// shortest-exact float formatting so equal specs render identically (the
// property the response cache keys on). An unknown kind renders as its bare
// name.
func (sp ScenarioSpec) String() string {
	k := lookupScenarioKind(sp.Kind)
	if k == nil {
		return sp.Kind
	}
	return k.formatSpec(sp)
}

// ParseScenarioSpec reads the colon-separated flag form of a spec, e.g.
// "uniform:2", "exp:0.001", "weibull:1.5:2000", "group:4:0.001",
// "burst:3:0.001:50", "staggered:2:1000" or "trace:failures.jsonl". The kind
// dispatches through the kind table and the parsed spec is validated by
// Generator, so a parsed spec is always materializable.
func ParseScenarioSpec(s string) (ScenarioSpec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	k := lookupScenarioKind(kind)
	if k == nil {
		return ScenarioSpec{}, unknownScenarioKind(kind)
	}
	sp, err := k.parseArgs(s, parts[1:])
	if err != nil {
		return ScenarioSpec{}, err
	}
	// Round-trip through Generator so a parsed spec is always materializable.
	if _, err := sp.Generator(); err != nil {
		return ScenarioSpec{}, err
	}
	return sp, nil
}

// NewScenario returns a scenario buffer for m processors with every
// processor alive — the shape FillScenario overwrites.
func NewScenario(m int) Scenario {
	sc := Scenario{CrashTime: make([]float64, m)}
	resetAlive(&sc)
	return sc
}
