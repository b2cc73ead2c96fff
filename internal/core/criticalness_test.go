package core

import (
	"math"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// TestCriticalnessOrderingHandComputed pins the Section 4.1 priority
// machinery on a graph where the selection order is fully predictable.
//
// Graph: two independent chains sharing nothing —
//
//	0 -> 1 (volume 10)     and     2 -> 3 (volume 100)
//
// Uniform unit delays (d̄ = 1) and uniform costs: E(0)=E(1)=5, E(2)=E(3)=5.
// Static bottom levels: bℓ(1)=5, bℓ(0)=5+10+5=20, bℓ(3)=5, bℓ(2)=5+100+5=110.
// At the first step the free tasks are {0, 2} with tℓ=0, so priorities are
// their bottom levels: task 2 (110) must be selected before task 0 (20);
// afterwards 3's dynamic top level (finish of 2 plus worst-case outgoing
// delay) competes against 0's static 20.
func TestCriticalnessOrderingHandComputed(t *testing.T) {
	g := dag.NewWithTasks("twochains", 4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(2, 3, 100)
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{
		{5, 5, 5}, {5, 5, 5}, {5, 5, 5}, {5, 5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	order := s.MappingOrder()
	// Task 2 first (priority 110 vs 20). Then task 3 becomes free with
	// tℓ(3) = F(2) + 100·maxDelay = 5 + 100 = 105, priority 105 + 5 = 110;
	// task 0 still has 20 — so 3 precedes 0, and 1 comes last.
	want := []dag.TaskID{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("mapping order %v, want %v", order, want)
		}
	}
	// Both copies of task 2 start at 0 and finish at 5.
	for _, r := range s.Replicas(2) {
		if r.StartMin != 0 || r.FinishMin != 5 {
			t.Errorf("task 2 copy %d window [%g,%g)", r.Copy, r.StartMin, r.FinishMin)
		}
	}
	// Task 3's replicas use the co-located copies of 2: start 5, finish 10.
	for _, r := range s.Replicas(3) {
		if r.StartMin != 5 || r.FinishMin != 10 {
			t.Errorf("task 3 copy %d window [%g,%g)", r.Copy, r.StartMin, r.FinishMin)
		}
	}
}

// TestWorstCaseOutgoingDelayInTopLevel checks the "max over j of
// d(P(t*),Pj)" term: with one slow outgoing link, a successor's dynamic top
// level must charge the slow link even if the final mapping avoids it.
func TestWorstCaseOutgoingDelayInTopLevel(t *testing.T) {
	g := dag.NewWithTasks("pair", 2)
	g.MustAddEdge(0, 1, 10)
	// P0-P1 fast (0.1), P0-P2 and P1-P2 slow (3.0).
	p, err := platform.NewFromDelays([][]float64{
		{0, 0.1, 3},
		{0.1, 0, 3},
		{3, 3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{
		{4, 4, 4}, {6, 6, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 is mapped on the same processor as task 0 (free local data
	// beats any link): latency 4 + 6 = 10.
	r0 := s.Replicas(0)[0]
	r1 := s.Replicas(1)[0]
	if r0.Proc != r1.Proc {
		t.Errorf("tasks split across P%d and P%d; co-location expected", r0.Proc, r1.Proc)
	}
	if lb := s.LowerBound(); math.Abs(lb-10) > 1e-9 {
		t.Errorf("latency %g, want 10", lb)
	}
}

// TestEFTSelectionPrefersFasterProcessor pins the equation (1) selection:
// with one fast and one slow processor and no communications, all ε+1
// replicas must include the fast processor, and the first copy must be the
// EFT-minimal one.
func TestEFTSelectionPrefersFasterProcessor(t *testing.T) {
	g := dag.NewWithTasks("single", 1)
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{3, 9, 27}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftsa(g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	reps := s.Replicas(0)
	if reps[0].Proc != 0 || reps[0].FinishMin != 3 {
		t.Errorf("first copy %+v, want P0 finishing at 3", reps[0])
	}
	if reps[1].Proc != 1 || reps[1].FinishMin != 9 {
		t.Errorf("second copy %+v, want P1 finishing at 9", reps[1])
	}
}
