package sched_test

import (
	"fmt"
	"log"

	_ "ftsched/internal/core" // registers ftsa
	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// ExampleMaxToleratedFailures shows the fixed-latency driver of Section 4.3
// on a hand-checkable two-task chain (costs 5 and 7, volume 10, two
// processors, unit delays): binary search for the largest tolerable ε within
// a latency budget.
func ExampleMaxToleratedFailures() {
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
	eps, s, err := sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{}, 25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε = %d, guaranteed latency %g\n", eps, s.UpperBound())
	// Output:
	// ε = 1, guaranteed latency 22
}
