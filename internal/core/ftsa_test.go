package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// testInstance draws a paper-style random instance with a fixed seed.
func testInstance(t *testing.T, seed int64, granularity float64, procs int) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(granularity)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 40, 60 // smaller than the paper for fast tests
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestFTSASmallHandComputed(t *testing.T) {
	// Two tasks in a chain, two identical processors, ε=1.
	g := dag.NewWithTasks("chain2", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := uniformPlatform(2, 1.0) // d = 1 between distinct procs
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{5, 5}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatalf("FTSA: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Task 0: both replicas start at 0, finish at 5 on both processors.
	for _, r := range s.Replicas(0) {
		if r.StartMin != 0 || r.FinishMin != 5 {
			t.Errorf("task 0 copy %d: got [%g,%g), want [0,5)", r.Copy, r.StartMin, r.FinishMin)
		}
	}
	// Task 1: each replica can start at 5 using the co-located copy of task
	// 0 (intra-processor communication is free), finishing at 12.
	for _, r := range s.Replicas(1) {
		if r.StartMin != 5 || r.FinishMin != 12 {
			t.Errorf("task 1 copy %d: got [%g,%g), want [5,12)", r.Copy, r.StartMin, r.FinishMin)
		}
	}
	if lb := s.LowerBound(); lb != 12 {
		t.Errorf("LowerBound = %g, want 12", lb)
	}
	// Pessimistic: task 1 waits for the remote copy too: 5 + 10*1 = 15,
	// then +7 = 22.
	if ub := s.UpperBound(); ub != 22 {
		t.Errorf("UpperBound = %g, want 22", ub)
	}
}

func TestFTSAValidatesOnRandomInstances(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, eps := range []int{0, 1, 2, 5} {
			inst := testInstance(t, seed, 1.0, 20)
			s, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{
				Epsilon: eps,
				Rng:     rand.New(rand.NewSource(seed)),
			})
			if err != nil {
				t.Fatalf("seed %d ε=%d: FTSA: %v", seed, eps, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d ε=%d: Validate: %v", seed, eps, err)
			}
			lb, ub := s.LowerBound(), s.UpperBound()
			if lb <= 0 || math.IsInf(lb, 1) {
				t.Fatalf("seed %d ε=%d: bad lower bound %g", seed, eps, lb)
			}
			if ub < lb-1e-9 {
				t.Fatalf("seed %d ε=%d: upper bound %g below lower bound %g", seed, eps, ub, lb)
			}
			for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
				if got := len(s.Replicas(dag.TaskID(tsk))); got != eps+1 {
					t.Fatalf("seed %d ε=%d: task %d has %d replicas", seed, eps, tsk, got)
				}
			}
			// Message bound: at most e(ε+1)² inter-processor messages.
			if max := inst.Graph.NumEdges() * (eps + 1) * (eps + 1); s.MessageCount() > max {
				t.Fatalf("seed %d ε=%d: %d messages exceed e(ε+1)²=%d", seed, eps, s.MessageCount(), max)
			}
		}
	}
}

func TestFTSALatencyGrowsWithEpsilon(t *testing.T) {
	// More replication cannot help the fault-free optimistic latency on
	// average; check the guaranteed (upper) bound is monotone-ish by
	// verifying ε=0 lower bound <= ε=2 upper bound.
	inst := testInstance(t, 7, 1.0, 20)
	s0, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.UpperBound() < s0.LowerBound() {
		t.Errorf("ε=2 upper bound %g below fault-free latency %g", s2.UpperBound(), s0.LowerBound())
	}
}

func TestFTSAEpsilonTooLarge(t *testing.T) {
	inst := testInstance(t, 3, 1.0, 4)
	if _, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 4}); err == nil {
		t.Fatal("want error for ε+1 > m, got nil")
	}
}

func TestFTSADeterministicWithoutRng(t *testing.T) {
	inst := testInstance(t, 11, 0.8, 10)
	a, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.LowerBound() != b.LowerBound() || a.UpperBound() != b.UpperBound() {
		t.Errorf("non-deterministic bounds: (%g,%g) vs (%g,%g)",
			a.LowerBound(), a.UpperBound(), b.LowerBound(), b.UpperBound())
	}
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		ra, rb := a.Replicas(dag.TaskID(tsk)), b.Replicas(dag.TaskID(tsk))
		for c := range ra {
			if ra[c] != rb[c] {
				t.Fatalf("task %d copy %d differs: %+v vs %+v", tsk, c, ra[c], rb[c])
			}
		}
	}
}

func TestFTSAFaultFreeMatchesEpsilonZero(t *testing.T) {
	// ε=0 is the fault-free schedule: one replica per task, Min == Max
	// windows (a single copy makes equations 1 and 3 coincide).
	inst := testInstance(t, 13, 1.2, 20)
	s, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		for _, r := range s.Replicas(dag.TaskID(tsk)) {
			if r.StartMin != r.StartMax || r.FinishMin != r.FinishMax {
				t.Fatalf("task %d: fault-free windows differ: %+v", tsk, r)
			}
		}
	}
	if s.LowerBound() != s.UpperBound() {
		t.Errorf("fault-free bounds differ: %g vs %g", s.LowerBound(), s.UpperBound())
	}
}

func TestScheduleOnSingleProcessor(t *testing.T) {
	// m=1, ε=0: everything serializes on one processor; latency is the sum
	// of execution times.
	g := dag.NewWithTasks("diamond", 4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 2, 5)
	g.MustAddEdge(1, 3, 5)
	g.MustAddEdge(2, 3, 5)
	p, err := uniformPlatform(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{2}, {3}, {4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if lb := s.LowerBound(); lb != 14 {
		t.Errorf("LowerBound = %g, want 14", lb)
	}
}

func TestFTSAEntryAndExitHeavyGraphs(t *testing.T) {
	// A graph with many entries and exits (no single source/sink).
	g := dag.NewWithTasks("multi", 6)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 3, 10)
	g.MustAddEdge(2, 4, 10)
	g.MustAddEdge(1, 5, 10)
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cm, err := platform.NewRandomCostModel(rng, 6, 3, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CommPattern != sched.PatternAll {
		t.Errorf("pattern = %v, want all", s.CommPattern)
	}
}

// TestAbortedRunLeavesNoStaleTask pins what a pooled run may inherit from one
// that stopped before its free list drained. A missed deadline returns with
// tasks still in α; release must hand the state back with an empty list, or
// the next run on it would pop a task of another graph. A cyclic graph is
// refused with dag.ErrCycle before a state is taken. After either, a run
// on pooled storage reproduces the schedule a clean run built.
func TestAbortedRunLeavesNoStaleTask(t *testing.T) {
	inst := testInstance(t, 25, 1.0, 20)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	opt := sched.RunOptions{Epsilon: 2}
	ref, err := ftsa(g, p, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	tight := ref.LowerBound() / 10
	requireRef := func(after string) {
		t.Helper()
		got, err := ftsa(g, p, cm, opt)
		if err != nil {
			t.Fatalf("run after %s: %v", after, err)
		}
		for task := 0; task < g.NumTasks(); task++ {
			if !reflect.DeepEqual(got.Replicas(dag.TaskID(task)), ref.Replicas(dag.TaskID(task))) {
				t.Fatalf("run after %s: task %d placed differently", after, task)
			}
		}
	}

	// The deadline miss by hand, so that the state it returns can be read.
	missed := opt
	missed.Latency = tight
	st, err := newState(g, p, cm, missed, sched.PatternAll, "FTSA", false)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil && st.free.Len() > 0 {
		task := st.pop()
		reps, _ := st.placeBestEFT(task)
		err = st.commit(task, reps, nil)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if st.free.Len() == 0 {
		t.Fatal("the run stopped with an empty list: nothing for release to drop")
	}
	st.release()
	if n := st.free.Len(); n != 0 {
		t.Fatalf("released state still lists %d free tasks", n)
	}
	if st.s != nil || st.f != nil || st.deadlines != nil {
		t.Fatal("released state still refers to the run's instance")
	}
	requireRef("a hand-driven deadline miss")

	for i := 0; i < 10; i++ {
		if _, err := ftsa(g, p, cm, missed); !errors.Is(err, ErrDeadline) {
			t.Fatalf("want ErrDeadline, got %v", err)
		}
		requireRef("ErrDeadline")
	}

	cyc := dag.NewWithTasks("cyc", 3)
	cyc.MustAddEdge(0, 1, 1)
	cyc.MustAddEdge(1, 2, 1)
	cyc.MustAddEdge(2, 1, 1)
	cp, err := uniformPlatform(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ccm, err := platform.NewCostModelFromMatrix([][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftsa(cyc, cp, ccm, sched.RunOptions{Epsilon: 1}); !errors.Is(err, dag.ErrCycle) {
		t.Fatalf("cyclic graph: want dag.ErrCycle, got %v", err)
	}
	if _, err := mcftsa(cyc, cp, ccm, sched.RunOptions{Epsilon: 1}); !errors.Is(err, dag.ErrCycle) {
		t.Fatalf("cyclic graph, MC-FTSA: want dag.ErrCycle, got %v", err)
	}
	requireRef("dag.ErrCycle")
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
