package dag

// IsTopologicalOrder reports whether order is a valid topological ordering of
// g (a permutation of all tasks in which every edge goes forward).
func (g *Graph) IsTopologicalOrder(order []TaskID) bool {
	if len(order) != g.NumTasks() {
		return false
	}
	pos := make([]int, g.NumTasks())
	seen := make([]bool, g.NumTasks())
	for i, t := range order {
		if !g.Valid(t) || seen[t] {
			return false
		}
		seen[t] = true
		pos[t] = i
	}
	for t := range g.succs {
		for _, a := range g.succs[t] {
			if pos[t] >= pos[a.To] {
				return false
			}
		}
	}
	return true
}

// Levels returns, for each task, its depth: entry tasks have level 0 and
// every other task has level 1 + max over predecessors. The second return
// value is the number of levels (max level + 1, or 0 for an empty graph).
func (g *Graph) Levels() ([]int, int, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, 0, err
	}
	levels := make([]int, f.NumTasks())
	maxLevel := -1
	for _, t := range f.TopologicalOrder() {
		l := 0
		for _, p := range f.PredIDs(t) {
			l = max(l, levels[p]+1)
		}
		levels[t] = l
		maxLevel = max(maxLevel, l)
	}
	return levels, maxLevel + 1, nil
}
