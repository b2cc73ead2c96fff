package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// flatCosts materializes closure costs into the flat per-task / per-edge-ID
// slices, using the same closure calls the literal traversal makes.
func flatCosts(f *Flat, node nodeCost, edge edgeCost) (nodeS, edgeS []float64) {
	nodeS = make([]float64, f.NumTasks())
	edgeS = make([]float64, f.NumEdges())
	for t := 0; t < f.NumTasks(); t++ {
		nodeS[t] = node(TaskID(t))
		lo := f.SuccEdgeLo(TaskID(t))
		succs := f.SuccIDs(TaskID(t))
		vols := f.SuccVolumes(TaskID(t))
		for i := range succs {
			edgeS[lo+int32(i)] = edge(TaskID(t), TaskID(succs[i]), vols[i])
		}
	}
	return nodeS, edgeS
}

// TestFlatMatchesLegacy is the byte-identity property over a seeded grid:
// the frozen traversals (topological orders, bottom levels) agree bit for bit
// with the literal closure-based traversals on random DAGs.
func TestFlatMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 40)
		fl, err := g.Freeze()
		if err != nil {
			return false
		}
		// Adjacency round-trip, both sides, both orders.
		if fl.NumTasks() != g.NumTasks() || fl.NumEdges() != g.NumEdges() {
			return false
		}
		for tsk := 0; tsk < g.NumTasks(); tsk++ {
			tid := TaskID(tsk)
			succs, vols := fl.SuccIDs(tid), fl.SuccVolumes(tid)
			gs := g.Succs(tid)
			if len(succs) != len(gs) || fl.OutDegree(tid) != len(gs) {
				return false
			}
			for i, a := range gs {
				if TaskID(succs[i]) != a.To || vols[i] != a.Volume {
					return false
				}
			}
			preds, pvols := fl.PredIDs(tid), fl.PredVolumes(tid)
			gp := g.Preds(tid)
			if len(preds) != len(gp) || fl.InDegree(tid) != len(gp) {
				return false
			}
			for i, a := range gp {
				if TaskID(preds[i]) != a.To || pvols[i] != a.Volume {
					return false
				}
			}
		}
		// Topological order is bit-identical to the literal Kahn pass, and the
		// reverse order plus positions are consistent with it.
		order, err := literalTopologicalOrder(g)
		if err != nil {
			return false
		}
		ft := fl.TopologicalOrder()
		if len(ft) != len(order) {
			return false
		}
		for i := range order {
			if ft[i] != order[i] || int(fl.topoPos[order[i]]) != i {
				return false
			}
			if fl.ReverseTopologicalOrder()[len(order)-1-i] != order[i] {
				return false
			}
		}
		// Levels: exact float equality against the closure computation.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		node := func(TaskID) float64 { return 1 + rng.Float64() }
		nodeVals := make([]float64, g.NumTasks())
		for i := range nodeVals {
			nodeVals[i] = node(TaskID(i))
		}
		nodeFn := func(t TaskID) float64 { return nodeVals[t] }
		edgeFn := func(_, _ TaskID, v float64) float64 { return v * 0.25 }
		wantBL, err := literalBottomLevels(g, nodeFn, edgeFn)
		if err != nil {
			return false
		}
		nodeS, edgeS := flatCosts(fl, nodeFn, edgeFn)
		gotBL := fl.BottomLevels(nodeS, edgeS, nil)
		for i := range wantBL {
			if gotBL[i] != wantBL[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFreezeMemoized verifies the frozen view is built once per graph shape
// and invalidated by every mutation path.
func TestFreezeMemoized(t *testing.T) {
	g := randomDAG(7, 20)
	f1, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("Freeze rebuilt an unmutated graph")
	}
	mutations := []struct {
		name string
		do   func(g *Graph)
	}{
		{"AddTask", func(g *Graph) { g.AddTask() }},
		{"AddEdge", func(g *Graph) {
			g.MustAddEdge(TaskID(g.NumTasks()-1), TaskID(g.NumTasks()-2), 1) // reversed: new task has no edges
		}},
		{"UnmarshalJSON", func(g *Graph) {
			if err := g.UnmarshalJSON([]byte(`{"tasks":2,"edges":[{"src":0,"dst":1,"volume":3}]}`)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	prev := f1
	for _, m := range mutations {
		m.do(g)
		next, err := g.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if next == prev {
			t.Fatalf("%s did not invalidate the frozen view", m.name)
		}
		prev = next
	}
	// The rebuilt view reflects the mutations.
	if prev.NumTasks() != g.NumTasks() || prev.NumEdges() != g.NumEdges() {
		t.Fatalf("frozen view is stale: %d/%d tasks, %d/%d edges",
			prev.NumTasks(), g.NumTasks(), prev.NumEdges(), g.NumEdges())
	}
}

// TestFreezeCycle verifies freezing reports a cycle instead of succeeding.
func TestFreezeCycle(t *testing.T) {
	g := NewWithTasks("cyc", 3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	if _, err := g.Freeze(); err != ErrCycle {
		t.Fatalf("Freeze on a cycle: %v, want ErrCycle", err)
	}
}

// TestIncrementalMatchesScratch is the incremental-exactness property:
// repairing bottom levels after random cost perturbations of random dirty
// sets agrees bit for bit with a from-scratch recomputation.
func TestIncrementalMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 40)
		fl, err := g.Freeze()
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0xd1b7))
		node := make([]float64, fl.NumTasks())
		edge := make([]float64, fl.NumEdges())
		for i := range node {
			node[i] = 1 + rng.Float64()
		}
		for i := range edge {
			edge[i] = rng.Float64() * 10
		}
		bl := fl.BottomLevels(node, edge, nil)
		u := fl.NewBottomLevelUpdater()
		for round := 0; round < 8; round++ {
			// Perturb a random dirty set: node costs and outgoing edges.
			k := 1 + rng.Intn(4)
			dirty := make([]TaskID, 0, k)
			for i := 0; i < k; i++ {
				d := TaskID(rng.Intn(fl.NumTasks()))
				dirty = append(dirty, d)
				node[d] = 1 + rng.Float64()
				lo, hi := fl.SuccEdgeLo(d), fl.SuccEdgeLo(d)+int32(fl.OutDegree(d))
				for e := lo; e < hi; e++ {
					if rng.Intn(2) == 0 {
						edge[e] = rng.Float64() * 10
					}
				}
			}
			u.Update(bl, node, edge, dirty)
			want := fl.BottomLevels(node, edge, nil)
			for i := range want {
				if bl[i] != want[i] {
					return false
				}
			}
		}
		// A clean Update (no cost change) touches only the dirty set itself.
		if n := u.Update(bl, node, edge, []TaskID{0}); n > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzFreeze feeds arbitrary JSON to the arena-backed decoder; any graph it
// accepts must freeze (acyclicity was validated on decode) and the frozen
// view must round-trip the adjacency exactly.
func FuzzFreeze(f *testing.F) {
	f.Add([]byte(`{"name":"x","tasks":3,"edges":[{"src":0,"dst":1,"volume":2},{"src":1,"dst":2,"volume":1}]}`))
	f.Add([]byte(`{"name":"","tasks":0,"edges":[]}`))
	f.Add([]byte(`{"name":"d","tasks":4,"edges":[{"src":0,"dst":3,"volume":0.5},{"src":0,"dst":1,"volume":1},{"src":1,"dst":3,"volume":4}]}`))
	if data, err := randomDAG(11, 30).MarshalJSON(); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return // invalid input is the decoder's concern, not Freeze's
		}
		fl, err := g.Freeze()
		if err != nil {
			t.Fatalf("decoded graph does not freeze: %v", err)
		}
		if fl.NumTasks() != g.NumTasks() || fl.NumEdges() != g.NumEdges() {
			t.Fatalf("size mismatch: flat %d/%d, graph %d/%d",
				fl.NumTasks(), fl.NumEdges(), g.NumTasks(), g.NumEdges())
		}
		for tsk := 0; tsk < g.NumTasks(); tsk++ {
			tid := TaskID(tsk)
			succs, vols := fl.SuccIDs(tid), fl.SuccVolumes(tid)
			gs := g.Succs(tid)
			if len(succs) != len(gs) {
				t.Fatalf("task %d: %d flat succs, %d graph succs", tsk, len(succs), len(gs))
			}
			for i, a := range gs {
				if TaskID(succs[i]) != a.To || vols[i] != a.Volume {
					t.Fatalf("task %d succ %d: flat (%d,%g), graph (%d,%g)",
						tsk, i, succs[i], vols[i], a.To, a.Volume)
				}
			}
			preds, pvols := fl.PredIDs(tid), fl.PredVolumes(tid)
			gp := g.Preds(tid)
			if len(preds) != len(gp) {
				t.Fatalf("task %d: %d flat preds, %d graph preds", tsk, len(preds), len(gp))
			}
			for i, a := range gp {
				if TaskID(preds[i]) != a.To || pvols[i] != a.Volume {
					t.Fatalf("task %d pred %d: flat (%d,%g), graph (%d,%g)",
						tsk, i, preds[i], pvols[i], a.To, a.Volume)
				}
			}
		}
		if !g.IsTopologicalOrder(fl.TopologicalOrder()) {
			t.Fatal("frozen topological order is not a topological order")
		}
	})
}
