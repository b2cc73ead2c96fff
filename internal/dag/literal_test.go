package dag

// The closure-cost traversals Graph carried before Flat became the only one,
// kept verbatim as the oracle TestFlatMatchesLegacy holds Flat to bit for
// bit.

// nodeCost gives the execution-cost contribution of a task when measuring
// path lengths, and edgeCost the communication contribution of an edge.
type (
	nodeCost func(t TaskID) float64
	edgeCost func(src, dst TaskID, volume float64) float64
)

// literalTopologicalOrder returns a topological ordering of the tasks using
// Kahn's algorithm, or ErrCycle if the graph is not acyclic. The order is
// deterministic: among tasks simultaneously ready it prefers smaller IDs
// (a simple FIFO over increasing insertion keeps this property because tasks
// become ready in ascending scan order).
func literalTopologicalOrder(g *Graph) ([]TaskID, error) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for t := 0; t < n; t++ {
		indeg[t] = len(g.preds[t])
	}
	queue := make([]TaskID, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, TaskID(t))
		}
	}
	order := make([]TaskID, 0, n)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, a := range g.succs[t] {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// literalBottomLevels computes, for every task, the static bottom level bℓ(t)
// of the paper (Section 4.1):
//
//	bℓ(t) = node(t)                                  if Γ+(t) = ∅
//	bℓ(t) = max over t* in Γ+(t) of
//	          node(t) + edge(t,t*) + bℓ(t*)          otherwise
//
// i.e. the length of the longest path from t to an exit task, counting t's
// own cost and the communications along the path.
func literalBottomLevels(g *Graph, node nodeCost, edge edgeCost) ([]float64, error) {
	rev, err := literalTopologicalOrder(g)
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	bl := make([]float64, g.NumTasks())
	for _, t := range rev {
		if len(g.succs[t]) == 0 {
			bl[t] = node(t)
			continue
		}
		best := 0.0
		for _, a := range g.succs[t] {
			v := node(t) + edge(t, a.To, a.Volume) + bl[a.To]
			if v > best {
				best = v
			}
		}
		bl[t] = best
	}
	return bl, nil
}
