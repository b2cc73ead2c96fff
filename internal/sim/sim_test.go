package sim

import (
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

func instance(t *testing.T, seed int64, procs int) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNoFailureReproducesLowerBound(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		inst := instance(t, seed, 10)
		for _, eps := range []int{0, 1, 3} {
			s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s, NoFailures(10), nil)
			if err != nil {
				t.Fatalf("seed %d ε=%d: %v", seed, eps, err)
			}
			if diff := math.Abs(res.Latency - s.LowerBound()); diff > 1e-7 {
				t.Errorf("seed %d ε=%d: failure-free simulated latency %g != lower bound %g",
					seed, eps, res.Latency, s.LowerBound())
			}
		}
	}
}

func TestFTSASurvivesAllCrashSets(t *testing.T) {
	// Theorem 4.1: the schedule remains valid under ANY set of at most ε
	// crashed processors. Enumerate every subset of size <= ε on a small
	// platform and verify the simulation completes within the upper bound.
	inst := instance(t, 3, 6)
	const eps = 2
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	ub := s.UpperBound()
	m := inst.Platform.NumProcs()
	for mask := 0; mask < 1<<m; mask++ {
		var crashed []platform.ProcID
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				crashed = append(crashed, platform.ProcID(j))
			}
		}
		if len(crashed) > eps {
			continue
		}
		sc, err := CrashAtZero(m, crashed...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, sc, nil)
		if err != nil {
			t.Fatalf("crash set %v: %v", crashed, err)
		}
		if res.Latency > ub+1e-7 {
			t.Errorf("crash set %v: latency %g exceeds guaranteed bound %g", crashed, res.Latency, ub)
		}
	}
}

func TestMCFTSASurvivesAllCrashSets(t *testing.T) {
	// Proposition 4.3: the matched communication set resists any ε crashes.
	inst := instance(t, 5, 6)
	const eps = 2
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Platform.NumProcs()
	for mask := 0; mask < 1<<m; mask++ {
		var crashed []platform.ProcID
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				crashed = append(crashed, platform.ProcID(j))
			}
		}
		if len(crashed) > eps {
			continue
		}
		sc, _ := CrashAtZero(m, crashed...)
		if _, err := Run(s, sc, nil); err != nil {
			t.Errorf("MC-FTSA failed under crash set %v: %v", crashed, err)
		}
	}
}

func TestTooManyCrashesCanFail(t *testing.T) {
	// Crashing every processor must fail: no exit task can complete.
	inst := instance(t, 1, 4)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]platform.ProcID, 4)
	for i := range all {
		all[i] = platform.ProcID(i)
	}
	sc, _ := CrashAtZero(4, all...)
	if _, err := Run(s, sc, nil); err == nil {
		t.Fatal("want failure when every processor crashes")
	}
}

func TestCrashLatencyWithinBoundsFTSA(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		inst := instance(t, seed, 12)
		const eps = 3
		s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 10; trial++ {
			sc, err := UniformCrashes(rng, 12, eps)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s, sc, nil)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if res.Latency > s.UpperBound()+1e-7 {
				t.Errorf("seed %d trial %d: latency %g exceeds upper bound %g",
					seed, trial, res.Latency, s.UpperBound())
			}
			if res.Latency <= 0 {
				t.Errorf("seed %d trial %d: non-positive latency %g", seed, trial, res.Latency)
			}
		}
	}
}

func TestMidExecutionCrashDeliversEarlierWork(t *testing.T) {
	// Two tasks chained on a 2-processor platform, ε=1. Crash P0 after the
	// first task completes but before the second finishes there: the run
	// must still succeed using P1, and results computed before the crash on
	// P0 are usable.
	g := dag.NewWithTasks("chain2", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := uniformPlatform(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{5, 5}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := NoFailures(2)
	if err := sc.Crash(0, 6); err != nil { // task 0 done at 5, task 1 cut at 6
		t.Fatal(err)
	}
	res, err := Run(s, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 completes only on P1, started at 5 via its local copy: 12.
	if res.Latency != 12 {
		t.Errorf("latency = %g, want 12", res.Latency)
	}
	if !res.Completed[0][0] || !res.Completed[0][1] {
		t.Errorf("task 0 copies should both complete: %v", res.Completed[0])
	}
	done := 0
	for _, ok := range res.Completed[1] {
		if ok {
			done++
		}
	}
	if done != 1 {
		t.Errorf("exactly one copy of task 1 should complete, got %d", done)
	}
}

func TestCommModelsOrdering(t *testing.T) {
	// One-port serializes sends, so it can only delay arrivals relative to
	// the contention-free model; bounded multi-port with large K matches
	// contention-free.
	inst := instance(t, 8, 8)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(s, NoFailures(8), ContentionFree{})
	if err != nil {
		t.Fatal(err)
	}
	onePort, err := Run(s, NoFailures(8), NewOnePort(8))
	if err != nil {
		t.Fatal(err)
	}
	if onePort.Latency < free.Latency-1e-7 {
		t.Errorf("one-port latency %g below contention-free %g", onePort.Latency, free.Latency)
	}
	wide, err := NewBoundedMultiPort(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(s, NoFailures(8), wide)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(multi.Latency-free.Latency) > 1e-7 {
		t.Errorf("64-port latency %g != contention-free %g", multi.Latency, free.Latency)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := CrashAtZero(2, 5); err == nil {
		t.Error("want error for out-of-range processor")
	}
	if _, err := UniformCrashes(rand.New(rand.NewSource(1)), 3, 4); err == nil {
		t.Error("want error for more crashes than processors")
	}
	sc := NoFailures(2)
	if err := sc.Crash(0, -1); err == nil {
		t.Error("want error for negative crash time")
	}
	if got := sc.NumFailedBefore(math.Inf(1)); got != 0 {
		t.Errorf("%d failed, want 0", got)
	}
	_ = sc.Crash(1, 3)
	if got := sc.NumFailedBefore(math.Inf(1)); got != 1 {
		t.Errorf("%d failed, want 1", got)
	}
}

// uniformPlatform is m processors with unit delay d between every two of
// them.
func uniformPlatform(m int, d float64) (*platform.Platform, error) {
	delay := make([][]float64, m)
	for k := range delay {
		delay[k] = make([]float64, m)
		for h := range delay[k] {
			if h != k {
				delay[k][h] = d
			}
		}
	}
	return platform.NewFromDelays(delay)
}
