package core

import (
	"errors"
	"testing"

	"ftsched/internal/sched"
)

func TestMaxToleratedFailuresFindsMaximum(t *testing.T) {
	inst := testInstance(t, 21, 1.0, 20)
	schedule := FTSAScheduler(inst.Graph, inst.Platform, inst.Costs, Options{})

	// A generous budget: the guaranteed latency of the maximum replication
	// degree. Everything up to ε=19 must fit.
	sMax, err := schedule(19)
	if err != nil {
		t.Fatal(err)
	}
	eps, s, err := MaxToleratedFailures(20, sMax.UpperBound()+1, schedule)
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
	s0, err := schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	budget := (s0.UpperBound() + sMax.UpperBound()) / 2
	eps, s, err = MaxToleratedFailures(20, budget, schedule)
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
	schedule := FTSAScheduler(inst.Graph, inst.Platform, inst.Costs, Options{})
	if _, _, err := MaxToleratedFailures(10, 1e-6, schedule); !errors.Is(err, ErrLatencyUnachievable) {
		t.Errorf("want ErrLatencyUnachievable, got %v", err)
	}
	if _, _, err := MaxToleratedFailures(10, -5, schedule); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestMaxToleratedFailuresWithMCFTSA(t *testing.T) {
	inst := testInstance(t, 23, 1.0, 12)
	schedule := MCFTSAScheduler(inst.Graph, inst.Platform, inst.Costs, MCFTSAOptions{})
	s1, err := schedule(1)
	if err != nil {
		t.Fatal(err)
	}
	eps, s, err := MaxToleratedFailures(12, s1.UpperBound(), schedule)
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
	ref, err := FTSA(inst.Graph, inst.Platform, inst.Costs, Options{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScheduleWithDeadlines(inst.Graph, inst.Platform, inst.Costs,
		Options{Epsilon: 2}, ref.LowerBound()*3)
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleWithDeadlinesInfeasible(t *testing.T) {
	inst := testInstance(t, 25, 1.0, 20)
	ref, err := FTSA(inst.Graph, inst.Platform, inst.Costs, Options{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A deadline far below the achievable latency must be detected during
	// scheduling, not at the end.
	_, err = ScheduleWithDeadlines(inst.Graph, inst.Platform, inst.Costs,
		Options{Epsilon: 2}, ref.LowerBound()/10)
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("want ErrDeadline, got %v", err)
	}
	if _, err := ScheduleWithDeadlines(inst.Graph, inst.Platform, inst.Costs, Options{Epsilon: 2}, -1); err == nil {
		t.Error("negative latency accepted")
	}
}

// TestScheduleWithDeadlinesMC drives MC-FTSA with the deadlines of Section
// 4.3, the way ScheduleWithDeadlines drives FTSA.
func TestScheduleWithDeadlinesMC(t *testing.T) {
	inst := testInstance(t, 27, 1.0, 20)
	ref, err := MCFTSA(inst.Graph, inst.Platform, inst.Costs, MCFTSAOptions{Options: Options{Epsilon: 2}})
	if err != nil {
		t.Fatal(err)
	}
	withDeadlines := func(latency float64) (*sched.Schedule, error) {
		dls, err := sched.Deadlines(inst.Graph, inst.Costs, inst.Platform, 2, latency)
		if err != nil {
			t.Fatal(err)
		}
		return MCFTSA(inst.Graph, inst.Platform, inst.Costs, MCFTSAOptions{Options: Options{Epsilon: 2, Deadlines: dls}})
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

func TestDeadlineOptionLengthChecked(t *testing.T) {
	inst := testInstance(t, 26, 1.0, 8)
	_, err := FTSA(inst.Graph, inst.Platform, inst.Costs, Options{
		Epsilon:   1,
		Deadlines: []float64{1, 2, 3}, // wrong length
	})
	if err == nil {
		t.Error("mismatched deadline vector accepted")
	}
}
