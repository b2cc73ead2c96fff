package reliability

import (
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

// sampled estimates the schedule's survival probability the one sampled
// way: sim.Evaluate under the exp scenario kind at rate e.Lambda.
func sampled(t *testing.T, seed int64, s *sched.Schedule, e Exponential, trials int) *sim.EvalResult {
	t.Helper()
	gen, err := sim.ScenarioSpec{Kind: "exp", Lambda: e.Lambda}.Generator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	mc := sampled(t, 17, s, e, 400)
	lower, err := SurvivalLowerBound(e, 8, eps, s.UpperBound())
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo success can only exceed the combinatorial lower bound
	// (mid-run crashes after useful work still succeed); allow sampling
	// noise of a few percent.
	if mc.SuccessRate < lower-0.06 {
		t.Errorf("Monte-Carlo success %g below lower bound %g", mc.SuccessRate, lower)
	}
	if mc.SuccessRate > 0 && mc.Latency.Mean <= 0 {
		t.Errorf("successful runs must report positive latency, got %g", mc.Latency.Mean)
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
	mc0, mc3 := sampled(t, 7, s0, e, 400), sampled(t, 7, s3, e, 400)
	if mc3.SuccessRate <= mc0.SuccessRate {
		t.Errorf("ε=3 success %g should beat ε=0 success %g", mc3.SuccessRate, mc0.SuccessRate)
	}
}
