package sim

import (
	"math"
	"math/rand"
	"testing"
)

// mustGen materializes a scenario spec's generator.
func mustGen(t testing.TB, sp ScenarioSpec) ScenarioGenerator {
	t.Helper()
	gen, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestDrawDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch ScenarioScratch
	for trial := 0; trial < 50; trial++ {
		procs := drawDistinct(rng, &scratch, 10, 4)
		if len(procs) != 4 {
			t.Fatalf("drew %d, want 4", len(procs))
		}
		seen := map[int]bool{}
		for _, p := range procs {
			if p < 0 || p >= 10 {
				t.Fatalf("processor %d outside [0,10)", p)
			}
			if seen[p] {
				t.Fatalf("duplicate processor %d in %v", p, procs)
			}
			seen[p] = true
		}
	}
}

func TestGeneratorsFillShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var scratch ScenarioScratch
	const m = 12
	for _, tc := range []struct {
		gen        ScenarioGenerator
		wantFailed int // -1: any
	}{
		{mustGen(t, ScenarioSpec{Kind: "uniform", Crashes: 3}), 3},
		{mustGen(t, ScenarioSpec{Kind: "exp", Lambda: 0.01}), m}, // every lifetime finite
		{mustGen(t, ScenarioSpec{Kind: "weibull", Shape: 2, Scale: 100}), m},
		{mustGen(t, ScenarioSpec{Kind: "group", GroupSize: 4, Lambda: 0.01}), 4},
		{mustGen(t, ScenarioSpec{Kind: "burst", Crashes: 5, Lambda: 0.01, Spread: 10}), 5},
		{mustGen(t, ScenarioSpec{Kind: "staggered", Crashes: 2, Horizon: 100}), 2},
	} {
		t.Run(tc.gen.Spec().Kind, func(t *testing.T) {
			if err := tc.gen.Check(m); err != nil {
				t.Fatal(err)
			}
			sc := NewScenario(m)
			if err := tc.gen.FillScenario(rng, &sc, &scratch); err != nil {
				t.Fatal(err)
			}
			if got := sc.NumFailedBefore(math.Inf(1)); got != tc.wantFailed {
				t.Fatalf("%d processors failed, want %d", got, tc.wantFailed)
			}
			for p, at := range sc.CrashTime {
				if at < 0 {
					t.Fatalf("processor %d crashes at negative time %g", p, at)
				}
			}
		})
	}
}

// A group crash must cover one aligned rack, failing together at one time.
func TestGroupGenCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch ScenarioScratch
	gen := mustGen(t, ScenarioSpec{Kind: "group", GroupSize: 4, Lambda: 0.01})
	for trial := 0; trial < 30; trial++ {
		sc := NewScenario(10) // racks: [0..3], [4..7], [8..9]
		if err := gen.FillScenario(rng, &sc, &scratch); err != nil {
			t.Fatal(err)
		}
		first := -1
		at := math.Inf(1)
		for p, c := range sc.CrashTime {
			if math.IsInf(c, 1) {
				continue
			}
			if first < 0 {
				first, at = p, c
				continue
			}
			if c != at {
				t.Fatalf("rack members crash at %g and %g", at, c)
			}
		}
		if first%4 != 0 {
			t.Fatalf("rack starts at processor %d, want a multiple of 4", first)
		}
		want := 4
		if first == 8 {
			want = 2 // tail rack
		}
		if got := sc.NumFailedBefore(math.Inf(1)); got != want {
			t.Fatalf("rack at %d lost %d processors, want %d", first, got, want)
		}
	}
}

// Burst crashes must land within [onset, onset+spread).
func TestBurstGenSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var scratch ScenarioScratch
	gen := mustGen(t, ScenarioSpec{Kind: "burst", Crashes: 4, Lambda: 0.01, Spread: 5})
	sc := NewScenario(8)
	if err := gen.FillScenario(rng, &sc, &scratch); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), 0.0
	for _, c := range sc.CrashTime {
		if math.IsInf(c, 1) {
			continue
		}
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	if hi-lo >= 5 {
		t.Fatalf("burst spans %g, want < spread 5", hi-lo)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	// With shape 1 the Weibull law degenerates to exponential with rate
	// 1/scale; the two generators consume rng identically, so equal seeds
	// yield equal draws.
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	var scratch ScenarioScratch
	scW, scE := NewScenario(6), NewScenario(6)
	if err := mustGen(t, ScenarioSpec{Kind: "weibull", Shape: 1, Scale: 50}).FillScenario(a, &scW, &scratch); err != nil {
		t.Fatal(err)
	}
	if err := mustGen(t, ScenarioSpec{Kind: "exp", Lambda: 1.0 / 50}).FillScenario(b, &scE, &scratch); err != nil {
		t.Fatal(err)
	}
	for p := range scW.CrashTime {
		if math.Abs(scW.CrashTime[p]-scE.CrashTime[p]) > 1e-9*scE.CrashTime[p] {
			t.Fatalf("processor %d: weibull(1,50) drew %g, exp(1/50) drew %g",
				p, scW.CrashTime[p], scE.CrashTime[p])
		}
	}
}

// weibullLaw is the Weibull lifetime law written independently of the
// scenario-kind table: inverse transform λ·E^(1/k), E standard exponential.
type weibullLaw struct{ Shape, Scale float64 }

func (w weibullLaw) sample(rng *rand.Rand) float64 {
	return w.Scale * math.Pow(rng.ExpFloat64(), 1/w.Shape)
}

// TestWeibullLaw holds the weibull kind to the law, draw for draw, and
// checks that a non-positive shape is refused.
func TestWeibullLaw(t *testing.T) {
	if _, err := (ScenarioSpec{Kind: "weibull", Shape: 0, Scale: 1}).Generator(); err == nil {
		t.Error("want error for shape 0")
	}
	w := weibullLaw{Shape: 2, Scale: 100}
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	sc := NewScenario(4)
	gen := mustGen(t, ScenarioSpec{Kind: "weibull", Shape: w.Shape, Scale: w.Scale})
	if err := gen.FillScenario(b, &sc, &ScenarioScratch{}); err != nil {
		t.Fatal(err)
	}
	for p := range sc.CrashTime {
		if got, want := sc.CrashTime[p], w.sample(a); got != want {
			t.Fatalf("processor %d: generator drew %g, law drew %g", p, got, want)
		}
	}
}

func TestScenarioSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"uniform:2",
		"exp:0.001",
		"exponential:0.5",
		"weibull:1.5:2000",
		"group:4:0.001",
		"burst:3:0.001:50",
		"burst:3:0.001",
		"staggered:2:1000",
	} {
		sp, err := ParseScenarioSpec(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		gen, err := sp.Generator()
		if err != nil {
			t.Fatalf("materialize %q: %v", in, err)
		}
		// String() must re-parse to an identical spec (canonical form).
		again, err := ParseScenarioSpec(sp.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", sp.String(), in, err)
		}
		if again != sp {
			t.Fatalf("round trip changed the spec: %+v -> %q -> %+v", sp, sp.String(), again)
		}
		if gen.Spec().String() != sp.String() {
			t.Fatalf("generator spec %q, parsed spec %q", gen.Spec().String(), sp.String())
		}
	}
}

func TestScenarioSpecErrors(t *testing.T) {
	for _, in := range []string{
		"", "bogus:1", "uniform", "uniform:x", "uniform:-1",
		"exp:0", "exp:-2", "weibull:1", "weibull:0:5", "weibull:2:0",
		"group:0:0.1", "group:4:0", "burst:1:0", "burst:1:0.1:-2",
		"staggered:1:0", "staggered:1",
		// Non-finite numbers: every comparison against NaN is false, so
		// they would otherwise mean "no failures".
		"exp:NaN", "weibull:NaN:1", "group:2:NaN", "burst:1:NaN", "burst:1:0.1:NaN",
		"staggered:1:NaN", "exp:+Inf", "weibull:1:Inf", "staggered:1:Inf",
	} {
		if _, err := ParseScenarioSpec(in); err == nil {
			t.Errorf("ParseScenarioSpec(%q) accepted a malformed spec", in)
		}
	}
}
