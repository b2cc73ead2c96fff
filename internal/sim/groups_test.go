package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
)

// groupCrash crashes an entire group of processors (e.g. a rack) at the
// given time: group g covers processors [g·size, (g+1)·size) ∩ [0, m).
func groupCrash(m, size, group int, at float64) (Scenario, error) {
	if size < 1 {
		return Scenario{}, fmt.Errorf("sim: group size %d", size)
	}
	lo := group * size
	hi := lo + size
	if group < 0 || lo >= m {
		return Scenario{}, fmt.Errorf("sim: group %d outside platform of %d processors", group, m)
	}
	if hi > m {
		hi = m
	}
	sc := NoFailures(m)
	for p := lo; p < hi; p++ {
		if err := sc.Crash(platform.ProcID(p), at); err != nil {
			return Scenario{}, err
		}
	}
	return sc, nil
}

// draw fills one scenario of m processors from gen.
func draw(gen ScenarioGenerator, rng *rand.Rand, m int) (Scenario, error) {
	sc := NewScenario(m)
	err := gen.FillScenario(rng, &sc, new(ScenarioScratch))
	return sc, err
}

func TestGroupCrash(t *testing.T) {
	sc, err := groupCrash(10, 3, 1, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		want := math.Inf(1)
		if p >= 3 && p < 6 {
			want = 5.0
		}
		if sc.CrashTime[p] != want {
			t.Errorf("P%d crash = %g, want %g", p, sc.CrashTime[p], want)
		}
	}
	// Last group may be partial.
	sc, err = groupCrash(10, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.NumFailedBefore(math.Inf(1)); n != 2 {
		t.Errorf("partial group failed %d, want 2", n)
	}
	if _, err := groupCrash(10, 3, 5, 0); err == nil {
		t.Error("out-of-range group accepted")
	}
	if _, err := groupCrash(10, 0, 0, 0); err == nil {
		t.Error("zero group size accepted")
	}
}

func TestStaggeredCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc, err := draw(mustGen(t, ScenarioSpec{Kind: "staggered", Crashes: 3, Horizon: 100}), rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.NumFailedBefore(math.Inf(1)); n != 3 {
		t.Fatalf("failed %d, want 3", n)
	}
	// All crash times strictly inside (0, horizon).
	for p, ct := range sc.CrashTime {
		if math.IsInf(ct, 1) {
			continue
		}
		if ct <= 0 || ct >= 100 {
			t.Errorf("P%d crash at %g outside (0,100)", p, ct)
		}
	}
	if _, err := draw(mustGen(t, ScenarioSpec{Kind: "staggered", Crashes: 5, Horizon: 100}), rng, 4); err == nil {
		t.Error("too many crashes accepted")
	}
	if _, err := (ScenarioSpec{Kind: "staggered", Crashes: 2}).Generator(); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestExponentialCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc, err := draw(mustGen(t, ScenarioSpec{Kind: "exp", Lambda: 0.1}), rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Every processor gets a finite crash time; the sample mean should be
	// near 1/λ = 10.
	sum := 0.0
	for _, ct := range sc.CrashTime {
		if math.IsInf(ct, 1) {
			t.Fatal("infinite crash time from exponential sampler")
		}
		sum += ct
	}
	mean := sum / 50
	if mean < 5 || mean > 20 {
		t.Errorf("sample mean %g far from 10", mean)
	}
	if _, err := (ScenarioSpec{Kind: "exp"}).Generator(); err == nil {
		t.Error("λ=0 accepted")
	}
}

func TestScheduleSurvivesGroupCrashWithinEpsilon(t *testing.T) {
	// A rack of 2 dies at time zero; ε=2 must absorb it.
	inst := instance(t, 6, 8)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	for group := 0; group < 4; group++ {
		sc, err := groupCrash(8, 2, group, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, sc, nil)
		if err != nil {
			t.Fatalf("group %d: %v", group, err)
		}
		if res.Latency > s.UpperBound()+1e-7 {
			t.Errorf("group %d latency %g exceeds bound %g", group, res.Latency, s.UpperBound())
		}
	}
}

func TestStaggeredCrashesLateFailuresCheaper(t *testing.T) {
	// Crashes late in the horizon should hurt less than crash-at-zero on
	// average: compare the same schedule under both.
	inst := instance(t, 7, 10)
	const eps = 3
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	var early, late float64
	const trials = 20
	for i := 0; i < trials; i++ {
		rngE := rand.New(rand.NewSource(int64(100 + i)))
		scE, err := UniformCrashes(rngE, 10, eps)
		if err != nil {
			t.Fatal(err)
		}
		resE, err := Run(s, scE, nil)
		if err != nil {
			t.Fatal(err)
		}
		early += resE.Latency
		rngL := rand.New(rand.NewSource(int64(100 + i)))
		scL, err := draw(mustGen(t, ScenarioSpec{Kind: "staggered", Crashes: eps, Horizon: s.UpperBound() * 2}), rngL, 10)
		if err != nil {
			t.Fatal(err)
		}
		resL, err := Run(s, scL, nil)
		if err != nil {
			t.Fatal(err)
		}
		late += resL.Latency
	}
	if late > early*1.001 {
		t.Errorf("staggered (mostly late) crashes %g should not exceed crash-at-zero %g", late/trials, early/trials)
	}
}
