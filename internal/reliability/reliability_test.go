package reliability

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

func TestSurvivalLowerBoundBasics(t *testing.T) {
	e := Exponential{Lambda: 0.01}
	// Zero mission time: nothing fails.
	p, err := SurvivalLowerBound(e, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("mission 0: survival %g, want 1", p)
	}
	// ε = m: every scenario tolerated.
	p, err = SurvivalLowerBound(e, 5, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Errorf("ε=m: survival %g, want 1", p)
	}
	// Monotone in ε.
	prev := -1.0
	for eps := 0; eps <= 10; eps++ {
		p, err := SurvivalLowerBound(e, 10, eps, 50)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("survival not monotone in ε: %g after %g", p, prev)
		}
		prev = p
	}
	// Monotone decreasing in mission time.
	prevT := 2.0
	for _, mission := range []float64{0, 10, 100, 1000} {
		p, err := SurvivalLowerBound(e, 10, 2, mission)
		if err != nil {
			t.Fatal(err)
		}
		if p > prevT {
			t.Errorf("survival not decreasing in mission time: %g then %g", prevT, p)
		}
		prevT = p
	}
}

func TestSurvivalLowerBoundMatchesHandComputation(t *testing.T) {
	// m=2, ε=1, p = 1−exp(−λT): survival = 1 − p².
	e := Exponential{Lambda: 0.1}
	mission := 5.0
	pFail := 1 - math.Exp(-e.Lambda*mission)
	want := 1 - pFail*pFail
	got, err := SurvivalLowerBound(e, 2, 1, mission)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("survival = %g, want %g", got, want)
	}
}

func TestSurvivalLowerBoundErrors(t *testing.T) {
	if _, err := SurvivalLowerBound(Exponential{Lambda: 0}, 5, 1, 10); err == nil {
		t.Error("want error for λ=0")
	}
	if _, err := SurvivalLowerBound(Exponential{Lambda: 1}, 0, 1, 10); err == nil {
		t.Error("want error for m=0")
	}
}

func TestMonteCarloAgreesWithBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 2
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Failure rate chosen so failures during the mission are common enough
	// to exercise both outcomes.
	e := Exponential{Lambda: 0.5 / s.UpperBound()}
	mc, err := MonteCarlo(17, s, e, 400)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := SurvivalLowerBound(e, 8, eps, s.UpperBound())
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo success can only exceed the combinatorial lower bound
	// (mid-run crashes after useful work still succeed); allow sampling
	// noise of a few percent.
	if mc.Success < lower-0.06 {
		t.Errorf("Monte-Carlo success %g below lower bound %g", mc.Success, lower)
	}
	if mc.Success > 0 && mc.MeanLatency <= 0 {
		t.Errorf("successful runs must report positive latency, got %g", mc.MeanLatency)
	}
}

func TestMonteCarlohigherEpsilonMoreReliable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 10
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := Exponential{Lambda: 1.0 / s3.UpperBound()}
	mc0, err := MonteCarlo(7, s0, e, 400)
	if err != nil {
		t.Fatal(err)
	}
	mc3, err := MonteCarlo(7, s3, e, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mc3.Success <= mc0.Success {
		t.Errorf("ε=3 success %g should beat ε=0 success %g", mc3.Success, mc0.Success)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarlo(1, nil, Exponential{Lambda: 0}, 10); err == nil {
		t.Error("want error for λ=0")
	}
}

// The refactor's contract: MonteCarlo is sim.Evaluate under the law's
// generator, so at equal seeds the two agree trial for trial — not just in
// expectation.
func TestMonteCarloAgreesWithEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := Exponential{Lambda: 1.0 / s.UpperBound()}
	const seed, trials = 23, 300
	mc, err := MonteCarlo(seed, s, e, trials)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := e.Generator()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Success != ev.SuccessRate || mc.MeanLatency != ev.Latency.Mean || mc.Trials != ev.Trials {
		t.Fatalf("MonteCarlo %+v disagrees with Evaluate (rate %g, mean %g, trials %d)",
			mc, ev.SuccessRate, ev.Latency.Mean, ev.Trials)
	}
	// Both should exercise successes and failures at this rate.
	if ev.Successes == 0 || ev.Successes == trials {
		t.Fatalf("degenerate sample: %d/%d successes", ev.Successes, trials)
	}
}

func TestWeibullLaw(t *testing.T) {
	w := Weibull{Shape: 2, Scale: 100}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weibull{Shape: 0, Scale: 1}).Validate(); err == nil {
		t.Error("want error for shape 0")
	}
	// Shape 1 degenerates to exponential: equal seeds, equal draws.
	a, b := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	wd := Weibull{Shape: 1, Scale: 40}.Sample(a)
	ed := Exponential{Lambda: 1.0 / 40}.Sample(b)
	if math.Abs(wd-ed) > 1e-9*ed {
		t.Errorf("Weibull(1,40) drew %g, Exponential(1/40) drew %g", wd, ed)
	}
	// The law's sampler and its sim generator agree draw for draw.
	a, b = rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	sc := sim.NewScenario(4)
	gen, err := sim.ScenarioSpec{Kind: "weibull", Shape: w.Shape, Scale: w.Scale}.Generator()
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.FillScenario(b, &sc, &sim.ScenarioScratch{}); err != nil {
		t.Fatal(err)
	}
	for p := range sc.CrashTime {
		if got, want := sc.CrashTime[p], w.Sample(a); got != want {
			t.Fatalf("processor %d: generator drew %g, law drew %g", p, got, want)
		}
	}
}

// Sample draws one crash time.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Lambda
}

// Validate checks the law's parameters.
func (w Weibull) Validate() error {
	if w.Shape <= 0 || w.Scale <= 0 {
		return fmt.Errorf("reliability: Weibull shape and scale must be positive, got k=%g λ=%g", w.Shape, w.Scale)
	}
	return nil
}

// Sample draws one crash time by inverse transform: λ·E^(1/k) with E
// standard exponential — the same draw the weibull scenario kind makes, so a seeded
// stream here reproduces the generator's scenarios.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	return w.Scale * math.Pow(rng.ExpFloat64(), 1/w.Shape)
}
