package core_test

import (
	"errors"
	"fmt"
	"log"

	"ftsched/internal/core"
	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// chainProblem builds the hand-checkable two-task chain used across the
// documentation: costs 5 and 7, volume 10, two processors, unit delays.
func chainProblem() (*dag.Graph, *platform.Platform, *platform.CostModel) {
	g := dag.NewWithTasks("chain2", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := platform.NewFromDelays([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		log.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{5, 5}, {7, 7}})
	if err != nil {
		log.Fatal(err)
	}
	return g, p, cm
}

// ExampleErrDeadline demonstrates the joint-criteria mode of Section 4.3: a
// positive Latency makes FTSA check per-task deadlines, so infeasible
// (ε, L) combinations are detected while scheduling, not after.
func ExampleErrDeadline() {
	g, p, cm := chainProblem()
	// The ε=1 schedule finishes at 12; a budget of 30 is feasible, 10 is
	// not — and the failure is reported mid-schedule via ErrDeadline.
	if _, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: 1, Latency: 30}); err == nil {
		fmt.Println("L=30: feasible")
	}
	_, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: 1, Latency: 10})
	fmt.Println("L=10 infeasible:", errors.Is(err, core.ErrDeadline))
	// Output:
	// L=30: feasible
	// L=10 infeasible: true
}
