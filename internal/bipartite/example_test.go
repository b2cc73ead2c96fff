package bipartite_test

import (
	"fmt"

	"ftsched/internal/bipartite"
)

// ExampleGraph_BottleneckPerfectMatching finds the assignment minimizing the
// worst edge weight — the exact method of Section 4.2 of the paper.
func ExampleGraph_BottleneckPerfectMatching() {
	g := bipartite.New(2, 2)
	_ = g.AddEdge(0, 0, 10) // expensive
	_ = g.AddEdge(0, 1, 5)
	_ = g.AddEdge(1, 0, 4)
	_ = g.AddEdge(1, 1, 10) // expensive

	m, bottleneck, _ := g.BottleneckPerfectMatching()
	fmt.Println("matching:", m, "bottleneck:", bottleneck)
	// Output:
	// matching: [1 0] bottleneck: 5
}

// ExampleGraph_GreedyOrderedMatchingInto applies the paper's greedy policy:
// edges are offered in a caller-chosen order and kept when both endpoints
// are still free.
func ExampleGraph_GreedyOrderedMatchingInto() {
	g := bipartite.New(2, 2)
	_ = g.AddEdge(0, 0, 1) // edge 0
	_ = g.AddEdge(0, 1, 2) // edge 1
	_ = g.AddEdge(1, 0, 3) // edge 2
	_ = g.AddEdge(1, 1, 4) // edge 3

	m, ok := g.GreedyOrderedMatchingInto([]int{0, 3, 1, 2}, nil, nil)
	fmt.Println(m, ok)
	// Output:
	// [0 1] true
}
