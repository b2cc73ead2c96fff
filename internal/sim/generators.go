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

// UniformGen crashes N distinct uniformly drawn processors at time 0 — the
// paper's adversarial crash experiments ("processors that fail during the
// schedule process are chosen uniformly"), batch form of UniformCrashes.
type UniformGen struct {
	N int
}

// Check implements ScenarioGenerator.
func (g UniformGen) Check(m int) error {
	if g.N < 0 || g.N > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", g.N, m)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g UniformGen) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
	m := len(sc.CrashTime)
	if err := g.Check(m); err != nil {
		return err
	}
	resetAlive(sc)
	for _, p := range drawDistinct(rng, scratch, m, g.N) {
		sc.CrashTime[p] = 0
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g UniformGen) Spec() ScenarioSpec { return ScenarioSpec{Kind: "uniform", Crashes: g.N} }

// ExponentialGen draws an independent exponential lifetime with rate Lambda
// for every processor — the reliability package's failure law. It is the
// generator reliability.MonteCarlo runs on, so both agree trial-for-trial at
// equal seeds.
type ExponentialGen struct {
	Lambda float64
}

// Check implements ScenarioGenerator.
func (g ExponentialGen) Check(int) error {
	if g.Lambda <= 0 {
		return fmt.Errorf("sim: non-positive failure rate %g", g.Lambda)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g ExponentialGen) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
	if err := g.Check(len(sc.CrashTime)); err != nil {
		return err
	}
	for p := range sc.CrashTime {
		sc.CrashTime[p] = rng.ExpFloat64() / g.Lambda
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g ExponentialGen) Spec() ScenarioSpec { return ScenarioSpec{Kind: "exp", Lambda: g.Lambda} }

// WeibullGen draws independent Weibull(Shape, Scale) lifetimes — the classic
// hardware-aging law: Shape < 1 models infant mortality, Shape > 1 wear-out,
// Shape = 1 degenerates to exponential with rate 1/Scale. Sampling is by
// inverse transform: Scale · E^(1/Shape) with E standard exponential.
type WeibullGen struct {
	Shape, Scale float64
}

// Check implements ScenarioGenerator.
func (g WeibullGen) Check(int) error {
	if g.Shape <= 0 || g.Scale <= 0 {
		return fmt.Errorf("sim: Weibull shape and scale must be positive, got k=%g λ=%g", g.Shape, g.Scale)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g WeibullGen) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
	if err := g.Check(len(sc.CrashTime)); err != nil {
		return err
	}
	inv := 1 / g.Shape
	for p := range sc.CrashTime {
		sc.CrashTime[p] = g.Scale * math.Pow(rng.ExpFloat64(), inv)
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g WeibullGen) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "weibull", Shape: g.Shape, Scale: g.Scale}
}

// GroupGen crashes one uniformly drawn group of Size consecutive processors
// (a rack: group g covers [g·Size, (g+1)·Size)) at
// a single exponential time with rate Lambda — correlated failures the way
// real clusters fail: a power feed or top-of-rack switch takes the whole
// rack down at once.
type GroupGen struct {
	Size   int
	Lambda float64
}

// Check implements ScenarioGenerator.
func (g GroupGen) Check(m int) error {
	if g.Size < 1 {
		return fmt.Errorf("sim: group size %d", g.Size)
	}
	if g.Size > m {
		return fmt.Errorf("sim: group size %d exceeds platform of %d processors", g.Size, m)
	}
	if g.Lambda <= 0 {
		return fmt.Errorf("sim: non-positive failure rate %g", g.Lambda)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g GroupGen) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
	m := len(sc.CrashTime)
	if err := g.Check(m); err != nil {
		return err
	}
	resetAlive(sc)
	groups := (m + g.Size - 1) / g.Size
	grp := rng.Intn(groups)
	at := rng.ExpFloat64() / g.Lambda
	hi := (grp + 1) * g.Size
	if hi > m {
		hi = m
	}
	for p := grp * g.Size; p < hi; p++ {
		sc.CrashTime[p] = at
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g GroupGen) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "group", GroupSize: g.Size, Lambda: g.Lambda}
}

// BurstGen crashes N distinct uniformly drawn processors in a burst: the
// burst onset is exponential with rate Lambda, and each crash lands at the
// onset plus an independent uniform jitter in [0, Spread) — a cascading
// outage (thermal event, bad rollout) rather than independent attrition.
// Spread 0 crashes all N at the same instant.
type BurstGen struct {
	N      int
	Lambda float64
	Spread float64
}

// Check implements ScenarioGenerator.
func (g BurstGen) Check(m int) error {
	if g.N < 0 || g.N > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", g.N, m)
	}
	if g.Lambda <= 0 {
		return fmt.Errorf("sim: non-positive failure rate %g", g.Lambda)
	}
	if g.Spread < 0 {
		return fmt.Errorf("sim: negative burst spread %g", g.Spread)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g BurstGen) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
	m := len(sc.CrashTime)
	if err := g.Check(m); err != nil {
		return err
	}
	resetAlive(sc)
	onset := rng.ExpFloat64() / g.Lambda
	for _, p := range drawDistinct(rng, scratch, m, g.N) {
		at := onset
		if g.Spread > 0 {
			at += rng.Float64() * g.Spread
		}
		sc.CrashTime[p] = at
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g BurstGen) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "burst", Crashes: g.N, Lambda: g.Lambda, Spread: g.Spread}
}

// StaggeredGen crashes N distinct uniformly drawn processors at evenly
// spaced times across [0, Horizon] — a rolling outage: crash i happens at
// (i+1)·Horizon/(N+1), so no processor is dead at time zero.
type StaggeredGen struct {
	N       int
	Horizon float64
}

// Check implements ScenarioGenerator.
func (g StaggeredGen) Check(m int) error {
	if g.N < 0 || g.N > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", g.N, m)
	}
	if g.Horizon <= 0 && g.N > 0 {
		return fmt.Errorf("sim: non-positive horizon %g", g.Horizon)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g StaggeredGen) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
	m := len(sc.CrashTime)
	if err := g.Check(m); err != nil {
		return err
	}
	resetAlive(sc)
	for i, p := range drawDistinct(rng, scratch, m, g.N) {
		sc.CrashTime[p] = g.Horizon * float64(i+1) / float64(g.N+1)
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g StaggeredGen) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "staggered", Crashes: g.N, Horizon: g.Horizon}
}

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
// parameters (counts are validated against m by the generator's Check).
func (sp ScenarioSpec) Generator() (ScenarioGenerator, error) {
	if sp.Kind == "" {
		return nil, fmt.Errorf("sim: scenario spec missing kind (known: %s)", strings.Join(ScenarioKinds(), ", "))
	}
	k := lookupScenarioKind(sp.Kind)
	if k == nil {
		return nil, unknownScenarioKind(sp.Kind)
	}
	return k.build(sp)
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
