package sim_test

import (
	"fmt"
	"log"
	"math"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
)

// ExampleRun schedules a two-task chain with one tolerated failure and
// replays it with and without a crash. Hand-checkable numbers: costs 5 and
// 7, volume 10, unit delays.
func ExampleRun() {
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
	s, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}

	clean, err := sim.Run(s, sim.NoFailures(2), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("no failure:", clean.Latency)

	sc, err := sim.CrashAtZero(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	crashed, err := sim.Run(s, sc, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("P1 dead:  ", crashed.Latency)
	// Output:
	// no failure: 12
	// P1 dead:   12
}

// ExampleUniformCrashes draws the paper's crash scenarios: n distinct
// processors chosen uniformly, dead from the start.
func ExampleUniformCrashes() {
	// Deterministic for the doc test.
	sc, err := sim.CrashAtZero(4, 0, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("failed processors:", sc.NumFailedBefore(math.Inf(1)))
	// Output:
	// failed processors: 2
}
