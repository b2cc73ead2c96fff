package dag

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomDAG builds a random DAG from a seed: forward edges only, so it is
// acyclic by construction.
func randomDAG(seed int64, maxN int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	g := NewWithTasks("prop", n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(TaskID(i), TaskID(j), float64(1+rng.Intn(100)))
			}
		}
	}
	return g
}

func TestPropTopologicalOrderAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 40)
		f, err := g.Freeze()
		return err == nil && g.IsTopologicalOrder(f.TopologicalOrder())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropValidateAcceptsGeneratedGraphs(t *testing.T) {
	f := func(seed int64) bool {
		return randomDAG(seed, 40).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropWidthBounds(t *testing.T) {
	// 1 <= width <= v, and width >= number of entry tasks (entries form an
	// antichain), width >= number of exits.
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		w, err := g.Width()
		if err != nil {
			return false
		}
		if w < 1 || w > g.NumTasks() {
			return false
		}
		entries := 0
		for tsk := 0; tsk < g.NumTasks(); tsk++ {
			if g.InDegree(TaskID(tsk)) == 0 {
				entries++
			}
		}
		return w >= entries && w >= len(g.Exits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropBottomLevelDominatesSuccessors(t *testing.T) {
	// bl(t) >= node(t) + edge(t,s) + bl(s) is an equality for the max
	// successor and >= for the rest; and bl(t) >= node(t) always.
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		node := func(TaskID) float64 { return 3 }
		edge := func(_, _ TaskID, v float64) float64 { return v }
		f, err := g.Freeze()
		if err != nil {
			return false
		}
		nodeS, edgeS := flatCosts(f, node, edge)
		bl := f.BottomLevels(nodeS, edgeS, nil)
		for tsk := 0; tsk < g.NumTasks(); tsk++ {
			tid := TaskID(tsk)
			if bl[tid] < node(tid) {
				return false
			}
			for _, a := range g.Succs(tid) {
				if bl[tid] < node(tid)+edge(tid, a.To, a.Volume)+bl[a.To]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropCriticalPathIsPathAndLongest: the critical path is the largest
// bottom level. It is held by an entry task, and following from there a
// successor that realizes each bottom level traces an entry-to-exit path
// whose costs re-add to that length.
func TestPropCriticalPathIsPathAndLongest(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		fl, err := g.Freeze()
		if err != nil {
			return false
		}
		nodeS, edgeS := flatCosts(fl, func(TaskID) float64 { return 1 }, func(_, _ TaskID, v float64) float64 { return v })
		bl := fl.BottomLevels(nodeS, edgeS, nil)
		length := slices.Max(bl)
		cur := TaskID(slices.Index(bl, length))
		if g.InDegree(cur) != 0 {
			return false
		}
		sum := 1.0
		for len(g.Succs(cur)) > 0 {
			next := TaskID(-1)
			for _, a := range g.Succs(cur) {
				if bl[cur] == 1+a.Volume+bl[a.To] {
					next = a.To
					sum += a.Volume + 1
					break
				}
			}
			if next < 0 {
				return false
			}
			cur = next
		}
		diff := sum - length
		return diff <= 1e-9 && diff >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 20)
		data, err := g.MarshalJSON()
		if err != nil {
			return false
		}
		var back Graph
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
			return false
		}
		return slices.Equal(back.Edges(), g.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
