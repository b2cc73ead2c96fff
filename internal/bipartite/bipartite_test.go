package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaximumMatchingSmall(t *testing.T) {
	// Classic 3x3 with a unique perfect matching.
	g := New(3, 3)
	mustAdd(t, g, 0, 0, 1)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 1, 1)
	mustAdd(t, g, 2, 2, 1)
	m := g.MaximumMatching(nil)
	if m.Size() != 3 {
		t.Fatalf("matching size %d, want 3", m.Size())
	}
	// Unique: 0-0, 1-1, 2-2.
	want := Matching{0, 1, 2}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("m[%d] = %d, want %d", i, m[i], want[i])
		}
	}
}

func mustAdd(t *testing.T, g *Graph, l, r int, w float64) {
	t.Helper()
	if err := g.AddEdge(l, r, w); err != nil {
		t.Fatal(err)
	}
}

func TestNoPerfectMatching(t *testing.T) {
	// Two left vertices competing for one right vertex.
	g := New(2, 2)
	mustAdd(t, g, 0, 0, 1)
	mustAdd(t, g, 1, 0, 1)
	if m := g.MaximumMatching(nil); m.Size() != 1 {
		t.Errorf("maximum matching size %d, want 1", m.Size())
	}
	if _, _, ok := g.BottleneckPerfectMatching(); ok {
		t.Error("bottleneck matching reported where none exists")
	}
}

func TestAddEdgeRange(t *testing.T) {
	g := New(2, 2)
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative left accepted")
	}
	if err := g.AddEdge(0, 2, 1); err == nil {
		t.Error("out-of-range right accepted")
	}
	if g.NumEdges() != 0 {
		t.Error("dimensions wrong")
	}
}

func TestBottleneckMatchingMinimizesMaxWeight(t *testing.T) {
	// Complete 2x2: identity matching has max weight 10; the swap has 5.
	g := New(2, 2)
	mustAdd(t, g, 0, 0, 10)
	mustAdd(t, g, 0, 1, 5)
	mustAdd(t, g, 1, 0, 4)
	mustAdd(t, g, 1, 1, 10)
	m, bottleneck, ok := g.BottleneckPerfectMatching()
	if !ok {
		t.Fatal("no matching found")
	}
	if bottleneck != 5 {
		t.Errorf("bottleneck = %g, want 5", bottleneck)
	}
	if m[0] != 1 || m[1] != 0 {
		t.Errorf("matching %v, want the swap", m)
	}
}

func TestBottleneckOnEmptyLeft(t *testing.T) {
	g := New(0, 3)
	m, b, ok := g.BottleneckPerfectMatching()
	if !ok || b != 0 || len(m) != 0 {
		t.Errorf("empty left: %v %g %v", m, b, ok)
	}
}

func TestGreedyOrderedMatching(t *testing.T) {
	g := New(2, 2)
	mustAdd(t, g, 0, 0, 1) // edge 0
	mustAdd(t, g, 0, 1, 2) // edge 1
	mustAdd(t, g, 1, 0, 3) // edge 2
	mustAdd(t, g, 1, 1, 4) // edge 3
	// Order by weight: greedy takes 0-0 then 1-1.
	m, ok := g.GreedyOrderedMatchingInto([]int{0, 1, 2, 3}, nil, nil)
	if !ok {
		t.Fatal("greedy failed")
	}
	if m[0] != 0 || m[1] != 1 {
		t.Errorf("matching %v", m)
	}
	// Adversarial order that dead-ends: edge 1 (0-1) then edge 3 (1-1)
	// cannot be taken, but edge 2 (1-0) completes it.
	m, ok = g.GreedyOrderedMatchingInto([]int{1, 3, 2, 0}, nil, nil)
	if !ok {
		t.Fatal("greedy failed on reordering")
	}
	if m[0] != 1 || m[1] != 0 {
		t.Errorf("matching %v", m)
	}
}

func TestGreedyCanDeadEnd(t *testing.T) {
	// Left 0 connects to both rights; left 1 only to right 0. Taking 0-0
	// first starves left 1.
	g := New(2, 2)
	mustAdd(t, g, 0, 0, 1) // edge 0
	mustAdd(t, g, 0, 1, 1) // edge 1
	mustAdd(t, g, 1, 0, 1) // edge 2
	if _, ok := g.GreedyOrderedMatchingInto([]int{0, 2, 1}, nil, nil); ok {
		t.Error("greedy should dead-end taking 0-0 first")
	}
}

// randomBipartite builds a graph with a guaranteed perfect matching (the
// identity) plus random extra edges.
func randomBipartite(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i, rng.Float64()*100) //nolint:errcheck // in-range by construction
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < 0.4 {
				g.AddEdge(i, j, rng.Float64()*100) //nolint:errcheck
			}
		}
	}
	return g
}

func TestPropMatchingIsValidAndMaximal(t *testing.T) {
	f := func(seed int64) bool {
		n := 1 + int(seed%13+13)%13
		g := randomBipartite(seed, n)
		m := g.MaximumMatching(nil)
		// Validity: matched pairs are edges, rights used at most once.
		usedR := map[int]bool{}
		for l, r := range m {
			if r < 0 {
				continue
			}
			if usedR[r] {
				return false
			}
			usedR[r] = true
			found := false
			for _, e := range g.Edges() {
				if e.L == l && e.R == r {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// The identity edges guarantee a perfect matching exists, and
		// Hopcroft-Karp must find one.
		return m.Size() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropBottleneckIsOptimal(t *testing.T) {
	// The bottleneck value must (a) admit a perfect matching using only
	// edges <= bottleneck and (b) be the smallest edge weight with that
	// property (checked by verifying no perfect matching exists strictly
	// below it).
	f := func(seed int64) bool {
		n := 2 + int(seed%7+7)%7
		g := randomBipartite(seed, n)
		m, b, ok := g.BottleneckPerfectMatching()
		if !ok || m.Size() != n {
			return false
		}
		for l, r := range m {
			// Find the weight actually used; at least one edge l-r must
			// have weight <= b.
			okEdge := false
			for _, e := range g.Edges() {
				if e.L == l && e.R == r && e.W <= b+1e-12 {
					okEdge = true
					break
				}
			}
			if !okEdge {
				return false
			}
		}
		below := g.MaximumMatching(func(e WeightedEdge) bool { return e.W < b })
		return below.Size() < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []WeightedEdge { return append([]WeightedEdge(nil), g.edges...) }
