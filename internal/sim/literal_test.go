package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/lazyrand"
)

// The six numeric generator types as they stood before the scenario-kind
// table's check and fill replaced them, kept verbatim (only renamed) as the
// oracle the table's rows are held to, draw for draw.

// literalUniform crashes N distinct uniformly drawn processors at time 0 — the
// paper's adversarial crash experiments ("processors that fail during the
// schedule process are chosen uniformly"), batch form of UniformCrashes.
type literalUniform struct {
	N int
}

// Check implements ScenarioGenerator.
func (g literalUniform) Check(m int) error {
	if g.N < 0 || g.N > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", g.N, m)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g literalUniform) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
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
func (g literalUniform) Spec() ScenarioSpec { return ScenarioSpec{Kind: "uniform", Crashes: g.N} }

// literalExponential draws an independent exponential lifetime with rate Lambda
// for every processor — the reliability package's failure law, whose
// sampled survival estimate is Evaluate under this kind.
type literalExponential struct {
	Lambda float64
}

// Check implements ScenarioGenerator.
func (g literalExponential) Check(int) error {
	if g.Lambda <= 0 {
		return fmt.Errorf("sim: non-positive failure rate %g", g.Lambda)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g literalExponential) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
	if err := g.Check(len(sc.CrashTime)); err != nil {
		return err
	}
	for p := range sc.CrashTime {
		sc.CrashTime[p] = rng.ExpFloat64() / g.Lambda
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g literalExponential) Spec() ScenarioSpec { return ScenarioSpec{Kind: "exp", Lambda: g.Lambda} }

// literalWeibull draws independent Weibull(Shape, Scale) lifetimes — the classic
// hardware-aging law: Shape < 1 models infant mortality, Shape > 1 wear-out,
// Shape = 1 degenerates to exponential with rate 1/Scale. Sampling is by
// inverse transform: Scale · E^(1/Shape) with E standard exponential.
type literalWeibull struct {
	Shape, Scale float64
}

// Check implements ScenarioGenerator.
func (g literalWeibull) Check(int) error {
	if g.Shape <= 0 || g.Scale <= 0 {
		return fmt.Errorf("sim: Weibull shape and scale must be positive, got k=%g λ=%g", g.Shape, g.Scale)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g literalWeibull) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
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
func (g literalWeibull) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "weibull", Shape: g.Shape, Scale: g.Scale}
}

// literalGroup crashes one uniformly drawn group of Size consecutive processors
// (a rack: group g covers [g·Size, (g+1)·Size)) at
// a single exponential time with rate Lambda — correlated failures the way
// real clusters fail: a power feed or top-of-rack switch takes the whole
// rack down at once.
type literalGroup struct {
	Size   int
	Lambda float64
}

// Check implements ScenarioGenerator.
func (g literalGroup) Check(m int) error {
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
func (g literalGroup) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
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
func (g literalGroup) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "group", GroupSize: g.Size, Lambda: g.Lambda}
}

// literalBurst crashes N distinct uniformly drawn processors in a burst: the
// burst onset is exponential with rate Lambda, and each crash lands at the
// onset plus an independent uniform jitter in [0, Spread) — a cascading
// outage (thermal event, bad rollout) rather than independent attrition.
// Spread 0 crashes all N at the same instant.
type literalBurst struct {
	N      int
	Lambda float64
	Spread float64
}

// Check implements ScenarioGenerator.
func (g literalBurst) Check(m int) error {
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
func (g literalBurst) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
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
func (g literalBurst) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "burst", Crashes: g.N, Lambda: g.Lambda, Spread: g.Spread}
}

// literalStaggered crashes N distinct uniformly drawn processors at evenly
// spaced times across [0, Horizon] — a rolling outage: crash i happens at
// (i+1)·Horizon/(N+1), so no processor is dead at time zero.
type literalStaggered struct {
	N       int
	Horizon float64
}

// Check implements ScenarioGenerator.
func (g literalStaggered) Check(m int) error {
	if g.N < 0 || g.N > m {
		return fmt.Errorf("sim: cannot crash %d of %d processors", g.N, m)
	}
	if g.Horizon <= 0 && g.N > 0 {
		return fmt.Errorf("sim: non-positive horizon %g", g.Horizon)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g literalStaggered) FillScenario(rng *rand.Rand, sc *Scenario, scratch *ScenarioScratch) error {
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
func (g literalStaggered) Spec() ScenarioSpec {
	return ScenarioSpec{Kind: "staggered", Crashes: g.N, Horizon: g.Horizon}
}

// TestKindsMatchLiteralGenerators holds every numeric kind's row to its
// literal generator: the same Check verdict and text at every platform size,
// and bit-identical crash times and rng consumption on every seed.
func TestKindsMatchLiteralGenerators(t *testing.T) {
	var lits []ScenarioGenerator
	for _, n := range []int{0, 1, 2, 3, 20} {
		lits = append(lits, literalUniform{N: n})
		for _, horizon := range []float64{1, 100} {
			lits = append(lits, literalStaggered{N: n, Horizon: horizon})
		}
		for _, lambda := range []float64{0.01, 1} {
			for _, spread := range []float64{0, 5} { // 0 leaves spread unset
				lits = append(lits, literalBurst{N: n, Lambda: lambda, Spread: spread})
			}
		}
	}
	for _, lambda := range []float64{0.001, 0.5, 3} {
		lits = append(lits, literalExponential{Lambda: lambda})
		for _, size := range []int{1, 2, 4, 20} {
			lits = append(lits, literalGroup{Size: size, Lambda: lambda})
		}
	}
	for _, shape := range []float64{0.5, 1, 2.5} {
		for _, scale := range []float64{1, 100} {
			lits = append(lits, literalWeibull{Shape: shape, Scale: scale})
		}
	}
	kinds := map[string]bool{}
	for _, lit := range lits {
		sp := lit.Spec()
		kinds[sp.Kind] = true
		gen, err := sp.Generator()
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if gen.Spec() != sp {
			t.Fatalf("%s: generator spec %+v, want %+v", sp, gen.Spec(), sp)
		}
		for _, m := range []int{1, 3, 20} {
			want, got := lit.Check(m), gen.Check(m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s on %d processors: Check = %v, literal %v", sp, m, got, want)
			}
			var litScratch, scratch ScenarioScratch
			for seed := int64(0); seed < 200; seed++ {
				a, b := lazyrand.New(seed), lazyrand.New(seed)
				scA, scB := NewScenario(m), NewScenario(m)
				wantErr, gotErr := lit.FillScenario(a, &scA, &litScratch), gen.FillScenario(b, &scB, &scratch)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s on %d processors, seed %d: FillScenario = %v, literal %v", sp, m, seed, gotErr, wantErr)
				}
				for p := range scA.CrashTime {
					if math.Float64bits(scB.CrashTime[p]) != math.Float64bits(scA.CrashTime[p]) {
						t.Fatalf("%s on %d processors, seed %d: P%d crashes at %v, literal %v",
							sp, m, seed, p, scB.CrashTime[p], scA.CrashTime[p])
					}
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("%s on %d processors, seed %d: the rng streams diverge", sp, m, seed)
				}
			}
		}
	}
	for _, k := range scenarioKinds {
		if k.build == nil && !kinds[k.Name] {
			t.Errorf("numeric kind %q has no literal generator", k.Name)
		}
	}
}
