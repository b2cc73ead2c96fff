package sched

import (
	"math/rand"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/workload"
)

func TestTheoreticalBoundsHandComputed(t *testing.T) {
	// Chain of 3 tasks, fastest costs 2/3/4, 2 processors.
	g := dag.NewWithTasks("chain3", 3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 10)
	p, err := uniformPlatform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{2, 5}, {3, 6}, {4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ComputeTheoreticalBounds(g, cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if tb.CriticalPath != 9 {
		t.Errorf("critical path = %g, want 9", tb.CriticalPath)
	}
	if tb.WorkBound != 4.5 {
		t.Errorf("work bound = %g, want 4.5", tb.WorkBound)
	}
	if tb.Combined != 9 {
		t.Errorf("combined = %g, want 9", tb.Combined)
	}
}

func TestQualityRatioAtLeastOne(t *testing.T) {
	// Any valid schedule's fault-free latency is at least the combined
	// theoretical bound, so the ratio is >= 1 (for ε=0; replication only
	// adds work).
	rng := rand.New(rand.NewSource(4))
	g := dag.NewWithTasks("rnd", 12)
	for i := 0; i < 11; i++ {
		g.MustAddEdge(dag.TaskID(rng.Intn(i+1)), dag.TaskID(i+1), float64(10+rng.Intn(50)))
	}
	p, err := platform.NewRandom(rng, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewRandomCostModel(rng, 12, 4, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, p, cm, 0, PatternAll, "hand")
	if err != nil {
		t.Fatal(err)
	}
	// Serial schedule on P0 — valid and clearly above the bound.
	clock := 0.0
	f, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, tsk := range f.TopologicalOrder() {
		e := cm.Cost(tsk, 0)
		if err := s.Place(tsk, []Replica{{
			Task: tsk, Copy: 0, Proc: 0,
			StartMin: clock, FinishMin: clock + e,
			StartMax: clock, FinishMax: clock + e,
		}}); err != nil {
			t.Fatal(err)
		}
		clock += e
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	q, err := s.QualityRatio()
	if err != nil {
		t.Fatal(err)
	}
	if q < 1 {
		t.Errorf("quality ratio %g < 1", q)
	}
}

// literalLongestPath is the critical-path length ComputeTheoreticalBounds
// read from the closure-cost Graph.LongestPathLength(node, zero edge costs)
// before Flat became the only traversal: a FIFO Kahn order, closure bottom
// levels in its reverse, and the largest bottom level of an entry task.
func literalLongestPath(g *dag.Graph, node func(dag.TaskID) float64) float64 {
	n := g.NumTasks()
	if n == 0 {
		return 0
	}
	indeg := make([]int, n)
	var queue []dag.TaskID
	for t := 0; t < n; t++ {
		if indeg[t] = g.InDegree(dag.TaskID(t)); indeg[t] == 0 {
			queue = append(queue, dag.TaskID(t))
		}
	}
	var order []dag.TaskID
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, a := range g.Succs(t) {
			if indeg[a.To]--; indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	bl := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		if len(g.Succs(t)) == 0 {
			bl[t] = node(t)
			continue
		}
		best := 0.0
		for _, a := range g.Succs(t) {
			if v := node(t) + 0 + bl[a.To]; v > best {
				best = v
			}
		}
		bl[t] = best
	}
	best := -1.0
	for t := 0; t < n; t++ {
		if g.InDegree(dag.TaskID(t)) == 0 && bl[t] > best {
			best = bl[t]
		}
	}
	return best
}

// TestTheoreticalBoundsMatchLiteral: the critical path read off Flat's bottom
// levels is bit for bit the closure traversal's longest path, on layered and
// Erdős–Rényi DAGs of up to 150 tasks and on the empty and one-task graphs.
func TestTheoreticalBoundsMatchLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var graphs []*dag.Graph
	for i := 0; i < 30; i++ {
		cfg := workload.DefaultRandomDAGConfig()
		cfg.MinTasks, cfg.MaxTasks = 1+rng.Intn(50), 150
		cfg.ShapeFactor = 0.5 + rng.Float64()
		g, err := workload.RandomDAG(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i := 0; i < 30; i++ {
		g, err := workload.ErdosRenyiDAG(rng, 1+rng.Intn(150), rng.Float64()*0.2, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, dag.New("empty"), dag.NewWithTasks("one", 1))
	p, err := platform.NewRandom(rng, 6, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range graphs {
		cm, err := platform.NewRandomCostModel(rng, g.NumTasks(), p.NumProcs(), 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := ComputeTheoreticalBounds(g, cm, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := literalLongestPath(g, cm.Min); tb.CriticalPath != want {
			t.Errorf("graph %d (%v): critical path %v, literal %v", i, g, tb.CriticalPath, want)
		}
	}
}
