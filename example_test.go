package ftsched_test

import (
	"fmt"
	"log"

	"ftsched"
	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// twoTaskProblem builds the smallest interesting problem: two chained tasks
// on two identical processors (execution costs 5 and 7, volume 10, unit
// delay 1), so every number below can be checked by hand.
func twoTaskProblem() (*ftsched.Graph, *ftsched.Platform, *ftsched.CostModel) {
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

// ExampleScheduleByName_ftsa schedules a two-task chain with FTSA and one
// tolerated failure. Both tasks get two replicas; the lower bound uses the
// co-located predecessor copy (start 5), the upper bound waits for the
// remote one (5 + 10·1 = 15).
func ExampleScheduleByName_ftsa() {
	g, p, cm := twoTaskProblem()
	s, err := ftsched.ScheduleByName("ftsa", g, p, cm, ftsched.RunOptions{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound: %g\n", s.LowerBound())
	fmt.Printf("upper bound: %g\n", s.UpperBound())
	fmt.Printf("messages:    %d\n", s.MessageCount())
	// Output:
	// lower bound: 12
	// upper bound: 22
	// messages:    2
}

// ExampleScheduleByName_mcftsa shows the Minimum Communications variant on
// the same problem: each copy of task 1 receives from its co-located copy of
// task 0, so no inter-processor message remains and the bounds coincide.
func ExampleScheduleByName_mcftsa() {
	g, p, cm := twoTaskProblem()
	s, err := ftsched.ScheduleByName("mcftsa", g, p, cm, ftsched.RunOptions{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound: %g\n", s.LowerBound())
	fmt.Printf("upper bound: %g\n", s.UpperBound())
	fmt.Printf("messages:    %d\n", s.MessageCount())
	// Output:
	// lower bound: 12
	// upper bound: 12
	// messages:    0
}

// ExampleScheduleByName dispatches through the scheduler registry — the
// same resolution the ftserved HTTP API, the campaign engine and the CLIs
// use — and lists the registered names.
func ExampleScheduleByName() {
	g, p, cm := twoTaskProblem()
	fmt.Println(ftsched.Schedulers())
	// Names and aliases are matched case-insensitively.
	s, err := ftsched.ScheduleByName("MC-FTSA", g, p, cm, ftsched.RunOptions{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s messages: %d\n", s.Algorithm, s.MessageCount())
	// A scheduler that is not fault-tolerant rejects ε > 0 up front.
	if _, err := ftsched.ScheduleByName("heft", g, p, cm, ftsched.RunOptions{Epsilon: 1}); err != nil {
		fmt.Println(err)
	}
	// Output:
	// [ftsa mcftsa ftsa-ins ftbar heft]
	// MC-FTSA messages: 0
	// sched: scheduler "heft" is not fault-tolerant; epsilon must be 0, got 1
}

// ExampleSimulate crashes one processor at time zero; the surviving copy of
// each task completes, at the cost of waiting for the remote input.
func ExampleSimulate() {
	g, p, cm := twoTaskProblem()
	s, err := ftsched.ScheduleByName("ftsa", g, p, cm, ftsched.RunOptions{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	sc, err := ftsched.CrashAtZero(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ftsched.Simulate(s, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latency after losing P0: %g\n", res.Latency)
	// Output:
	// latency after losing P0: 12
}

// ExampleMaxToleratedFailures finds how many failures fit a latency budget
// (Section 4.3 of the paper): with a budget of 22 the two-processor
// platform supports ε = 1; with 12 only the unreplicated schedule fits.
func ExampleMaxToleratedFailures() {
	g, p, cm := twoTaskProblem()
	for _, budget := range []float64{22, 12} {
		eps, _, err := ftsched.MaxToleratedFailures("ftsa", g, p, cm, ftsched.RunOptions{}, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %g tolerates %d failure(s)\n", budget, eps)
	}
	// Output:
	// budget 22 tolerates 1 failure(s)
	// budget 12 tolerates 0 failure(s)
}

// ExampleSurvivalLowerBound bounds the survival probability of an ε=1
// schedule on two processors whose lifetimes are exponential.
func ExampleSurvivalLowerBound() {
	law := ftsched.Exponential{Lambda: 0.01}
	pSurvive, err := ftsched.SurvivalLowerBound(law, 2, 1, 22)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(survive) >= %.4f\n", pSurvive)
	// Output:
	// P(survive) >= 0.9610
}
