package core

import (
	"errors"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// The drivers of Section 4.3 run this package's schedulers through the
// registry: sched.MaxToleratedFailures probes ε by name, and a positive
// RunOptions.Latency turns on the deadline check.

func TestMaxToleratedFailuresFindsMaximum(t *testing.T) {
	inst := testInstance(t, 21, 1.0, 20)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs

	// A generous budget: the guaranteed latency of the maximum replication
	// degree. Everything up to ε=19 must fit.
	sMax, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 19})
	if err != nil {
		t.Fatal(err)
	}
	eps, s, err := sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{}, sMax.UpperBound()+1)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 19 {
		t.Errorf("ε = %d, want 19 under an unconstrained budget", eps)
	}
	if s == nil || s.Epsilon != eps {
		t.Errorf("schedule ε = %v", s)
	}

	// A budget between ε=0 and the max forces an intermediate answer whose
	// guarantee respects the budget.
	s0, err := ftsa(g, p, cm, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := (s0.UpperBound() + sMax.UpperBound()) / 2
	eps, s, err = sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if s.UpperBound() > budget {
		t.Errorf("returned schedule guarantee %g exceeds budget %g", s.UpperBound(), budget)
	}
	if eps < 0 || eps > 19 {
		t.Errorf("ε = %d out of range", eps)
	}
}

func TestMaxToleratedFailuresUnachievable(t *testing.T) {
	inst := testInstance(t, 22, 1.0, 10)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	if _, _, err := sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{}, 1e-6); !errors.Is(err, sched.ErrLatencyUnachievable) {
		t.Errorf("want ErrLatencyUnachievable, got %v", err)
	}
	if _, _, err := sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{}, -5); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestMaxToleratedFailuresWithMCFTSA(t *testing.T) {
	inst := testInstance(t, 23, 1.0, 12)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	s1, err := mcftsa(g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	eps, s, err := sched.MaxToleratedFailures("mcftsa", g, p, cm, sched.RunOptions{}, s1.UpperBound())
	if err != nil {
		t.Fatal(err)
	}
	if eps < 1 {
		t.Errorf("ε = %d, want >= 1 (budget chosen to fit ε=1)", eps)
	}
	if s.CommPattern != sched.PatternMatched {
		t.Errorf("pattern %v", s.CommPattern)
	}
}

func TestScheduleWithDeadlinesFeasible(t *testing.T) {
	inst := testInstance(t, 24, 1.0, 20)
	// First find the actual ε=2 latency, then ask for it as the budget:
	// must succeed.
	ref, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(inst.Graph, inst.Platform, inst.Costs,
		sched.RunOptions{Epsilon: 2, Latency: ref.LowerBound() * 3})
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleWithDeadlinesInfeasible(t *testing.T) {
	inst := testInstance(t, 25, 1.0, 20)
	ref, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A deadline far below the achievable latency must be detected during
	// scheduling, not at the end.
	_, err = ftsa(inst.Graph, inst.Platform, inst.Costs,
		sched.RunOptions{Epsilon: 2, Latency: ref.LowerBound() / 10})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("want ErrDeadline, got %v", err)
	}
	if _, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2, Latency: -1}); err == nil {
		t.Error("negative latency accepted")
	}
}

// TestScheduleWithDeadlinesMC drives MC-FTSA with the deadlines of Section
// 4.3, the way a positive Latency drives FTSA.
func TestScheduleWithDeadlinesMC(t *testing.T) {
	inst := testInstance(t, 27, 1.0, 20)
	ref, err := mcftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	withDeadlines := func(latency float64) (*sched.Schedule, error) {
		return mcftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2, Latency: latency})
	}
	s, err := withDeadlines(ref.LowerBound() * 3)
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CommPattern != sched.PatternMatched {
		t.Errorf("pattern %v", s.CommPattern)
	}
	if _, err := withDeadlines(ref.LowerBound() / 10); !errors.Is(err, ErrDeadline) {
		t.Errorf("want ErrDeadline, got %v", err)
	}
}

// TestDeadlineOptionLengthChecked pins where a latency-checked run gets its
// deadlines: newState derives one per task, after sched.New has checked the
// cost model's shape, so a matrix short of a row is refused instead of being
// read past its end while the deadlines are computed.
func TestDeadlineOptionLengthChecked(t *testing.T) {
	inst := testInstance(t, 26, 1.0, 8)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	opt := sched.RunOptions{Epsilon: 1, Latency: 1e9}
	st, err := newState(g, p, cm, opt, sched.PatternAll, "FTSA", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.deadlines) != g.NumTasks() {
		t.Errorf("%d deadlines for %d tasks", len(st.deadlines), g.NumTasks())
	}
	st.release()

	rows := make([][]float64, g.NumTasks()-1)
	for i := range rows {
		for j := 0; j < p.NumProcs(); j++ {
			rows[i] = append(rows[i], cm.Cost(dag.TaskID(i), platform.ProcID(j)))
		}
	}
	short, err := platform.NewCostModelFromMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftsa(g, p, short, opt); err == nil {
		t.Error("a cost model short of a row was accepted")
	}
}
