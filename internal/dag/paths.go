package dag

import "fmt"

// NodeCost gives the execution-cost contribution of a task when measuring
// path lengths, and EdgeCost the communication contribution of an edge.
// Schedulers plug in platform-derived averages (E̅(t), W̅(ti,tj)); analyses
// can plug unit costs to obtain hop counts.
type (
	NodeCost func(t TaskID) float64
	EdgeCost func(src, dst TaskID, volume float64) float64
)

// UnitNodeCost counts 1 per task.
func UnitNodeCost(TaskID) float64 { return 1 }

// ZeroEdgeCost ignores communications.
func ZeroEdgeCost(TaskID, TaskID, float64) float64 { return 0 }

// BottomLevels computes, for every task, the static bottom level bℓ(t) of the
// paper (Section 4.1):
//
//	bℓ(t) = node(t)                                  if Γ+(t) = ∅
//	bℓ(t) = max over t* in Γ+(t) of
//	          node(t) + edge(t,t*) + bℓ(t*)          otherwise
//
// i.e. the length of the longest path from t to an exit task, counting t's
// own cost and the communications along the path.
func (g *Graph) BottomLevels(node NodeCost, edge EdgeCost) ([]float64, error) {
	rev, err := g.ReverseTopologicalOrder()
	if err != nil {
		return nil, err
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

// TopLevels computes the static top level of every task: the length of the
// longest path from an entry task to t, excluding t's own cost:
//
//	tℓ(t) = 0                                        if Γ−(t) = ∅
//	tℓ(t) = max over t* in Γ−(t) of
//	          tℓ(t*) + node(t*) + edge(t*,t)         otherwise
func (g *Graph) TopLevels(node NodeCost, edge EdgeCost) ([]float64, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	tl := make([]float64, g.NumTasks())
	for _, t := range order {
		best := 0.0
		for _, a := range g.preds[t] {
			v := tl[a.To] + node(a.To) + edge(a.To, t, a.Volume)
			if v > best {
				best = v
			}
		}
		tl[t] = best
	}
	return tl, nil
}

// CriticalPath returns the tasks on a longest entry-to-exit path under the
// given cost functions, together with its length. Ties are broken toward
// smaller task IDs, so the result is deterministic.
func (g *Graph) CriticalPath(node NodeCost, edge EdgeCost) ([]TaskID, float64, error) {
	if g.NumTasks() == 0 {
		return nil, 0, nil
	}
	bl, err := g.BottomLevels(node, edge)
	if err != nil {
		return nil, 0, err
	}
	// The critical path starts at the entry task with the largest bottom level.
	start := TaskID(-1)
	best := -1.0
	for _, t := range g.Entries() {
		if bl[t] > best {
			best = bl[t]
			start = t
		}
	}
	if start < 0 {
		return nil, 0, fmt.Errorf("dag: no entry task in %q", g.name)
	}
	path := []TaskID{start}
	cur := start
	for len(g.succs[cur]) > 0 {
		var next TaskID = -1
		bestNext := -1.0
		for _, a := range g.sortedSuccs(cur) {
			v := edge(cur, a.To, a.Volume) + bl[a.To]
			if v > bestNext {
				bestNext = v
				next = a.To
			}
		}
		path = append(path, next)
		cur = next
	}
	return path, best, nil
}

// LongestPathLength returns the critical-path length only.
func (g *Graph) LongestPathLength(node NodeCost, edge EdgeCost) (float64, error) {
	_, l, err := g.CriticalPath(node, edge)
	return l, err
}

// TotalVolume returns the sum of V over all edges.
func (g *Graph) TotalVolume() float64 {
	sum := 0.0
	for t := range g.succs {
		for _, a := range g.succs[t] {
			sum += a.Volume
		}
	}
	return sum
}
