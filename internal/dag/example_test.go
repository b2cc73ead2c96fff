package dag_test

import (
	"fmt"

	"ftsched/internal/dag"
)

// ExampleGraph builds the four-task diamond and inspects its structure.
func ExampleGraph() {
	g := dag.NewWithTasks("diamond", 4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 20)
	g.MustAddEdge(1, 3, 30)
	g.MustAddEdge(2, 3, 40)

	f, _ := g.Freeze()
	fmt.Println("topological order:", f.TopologicalOrder())
	w, _ := g.Width()
	fmt.Println("width:", w)
	fmt.Println("exits:", g.Exits())
	// Output:
	// topological order: [0 1 2 3]
	// width: 2
	// exits: [3]
}

// ExampleFlat_BottomLevels computes the static bottom levels used as task
// priorities by the schedulers (unit node costs, volumes as edge costs).
func ExampleFlat_BottomLevels() {
	g := dag.NewWithTasks("diamond", 4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 20)
	g.MustAddEdge(1, 3, 30)
	g.MustAddEdge(2, 3, 40)

	f, _ := g.Freeze()
	node := []float64{1, 1, 1, 1}
	edge := make([]float64, f.NumEdges()) // indexed by edge ID
	for t := range dag.TaskID(f.NumTasks()) {
		lo := f.SuccEdgeLo(t)
		for i, v := range f.SuccVolumes(t) {
			edge[lo+int32(i)] = v
		}
	}
	fmt.Println(f.BottomLevels(node, edge, nil))
	// Output:
	// [63 32 42 1]
}
