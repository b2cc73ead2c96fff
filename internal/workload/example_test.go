package workload_test

import (
	"fmt"
	"math/rand"

	"ftsched/internal/workload"
)

// ExampleNewInstance draws a complete scheduling problem with the paper's
// Section 6 parameters, scaled to an exact target granularity.
func ExampleNewInstance() {
	rng := rand.New(rand.NewSource(1))
	inst, err := workload.NewInstance(rng, workload.DefaultPaperConfig(0.8))
	if err != nil {
		panic(err)
	}
	g, _ := inst.Granularity()
	fmt.Printf("procs: %d, granularity: %.1f, tasks in [100,150]: %v\n",
		inst.Platform.NumProcs(), g,
		inst.Graph.NumTasks() >= 100 && inst.Graph.NumTasks() <= 150)
	// Output:
	// procs: 20, granularity: 0.8, tasks in [100,150]: true
}

// ExampleGaussianElimination builds the classic column-oriented Gaussian
// elimination DAG.
func ExampleGaussianElimination() {
	g, err := workload.GaussianElimination(4, 100)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d tasks, %d edges, %d exit\n", g.NumTasks(), g.NumEdges(), len(g.Exits()))
	// Output:
	// 9 tasks, 11 edges, 1 exit
}

// ExampleCholesky sizes the tiled Cholesky factorization DAG.
func ExampleCholesky() {
	for _, n := range []int{3, 5, 8} {
		g, err := workload.Cholesky(n, 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("n=%d: %d tasks\n", n, g.NumTasks())
	}
	// Output:
	// n=3: 10 tasks
	// n=5: 35 tasks
	// n=8: 120 tasks
}
