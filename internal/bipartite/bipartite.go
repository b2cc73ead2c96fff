package bipartite

import (
	"fmt"
	"math"
	"sort"
)

// WeightedEdge joins left vertex L to right vertex R with weight W.
type WeightedEdge struct {
	L, R int
	W    float64
}

// Graph is a bipartite graph with weighted edges. The zero value is unusable;
// call New.
type Graph struct {
	nLeft, nRight int
	adj           [][]int // adj[l] lists edge indices incident to left vertex l
	edges         []WeightedEdge
}

// New returns an empty bipartite graph with the given part sizes.
func New(nLeft, nRight int) *Graph {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("bipartite: negative part size (%d,%d)", nLeft, nRight))
	}
	return &Graph{nLeft: nLeft, nRight: nRight, adj: make([][]int, nLeft)}
}

// Reset reinitializes g in place for the given part sizes, keeping the edge
// and adjacency storage of previous uses — the sync.Pool-friendly
// counterpart of New for callers (MC-FTSA's per-edge matchings) that build
// many small graphs back to back.
func (g *Graph) Reset(nLeft, nRight int) {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("bipartite: negative part size (%d,%d)", nLeft, nRight))
	}
	g.nLeft, g.nRight = nLeft, nRight
	if cap(g.adj) < nLeft {
		g.adj = make([][]int, nLeft)
	}
	g.adj = g.adj[:nLeft]
	for l := range g.adj {
		g.adj[l] = g.adj[l][:0]
	}
	g.edges = g.edges[:0]
}

// AddEdge inserts an edge l—r with weight w. Parallel edges are allowed
// (callers in this codebase never create them, but the algorithms tolerate
// them).
func (g *Graph) AddEdge(l, r int, w float64) error {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		return fmt.Errorf("bipartite: edge (%d,%d) out of range (%d,%d)", l, r, g.nLeft, g.nRight)
	}
	g.edges = append(g.edges, WeightedEdge{L: l, R: r, W: w})
	g.adj[l] = append(g.adj[l], len(g.edges)-1)
	return nil
}

// Matching maps each left vertex to its matched right vertex, or -1.
type Matching []int

// Size returns the number of matched left vertices.
func (m Matching) Size() int {
	n := 0
	for _, r := range m {
		if r >= 0 {
			n++
		}
	}
	return n
}

// MaximumMatching computes a maximum-cardinality matching with Hopcroft–Karp
// in O(E·sqrt(V)). Only edges for which keep returns true participate; pass
// nil to use every edge.
func (g *Graph) MaximumMatching(keep func(WeightedEdge) bool) Matching {
	const inf = math.MaxInt32

	matchL := make([]int, g.nLeft)
	matchR := make([]int, g.nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}

	dist := make([]int, g.nLeft)
	queue := make([]int, 0, g.nLeft)

	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < g.nLeft; l++ {
			if matchL[l] == -1 {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, ei := range g.adj[l] {
				e := g.edges[ei]
				if keep != nil && !keep(e) {
					continue
				}
				next := matchR[e.R]
				if next == -1 {
					found = true
				} else if dist[next] == inf {
					dist[next] = dist[l] + 1
					queue = append(queue, next)
				}
			}
		}
		return found
	}

	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, ei := range g.adj[l] {
			e := g.edges[ei]
			if keep != nil && !keep(e) {
				continue
			}
			next := matchR[e.R]
			if next == -1 || (dist[next] == dist[l]+1 && dfs(next)) {
				matchL[l] = e.R
				matchR[e.R] = l
				return true
			}
		}
		dist[l] = inf
		return false
	}

	for bfs() {
		for l := 0; l < g.nLeft; l++ {
			if matchL[l] == -1 {
				dfs(l)
			}
		}
	}
	return matchL
}

// BottleneckPerfectMatching returns a perfect matching (saturating the left
// part) minimizing the largest edge weight used, via binary search over the
// sorted set of distinct edge weights — the polynomial method proposed in
// Section 4.2 of the paper. The second return value is the bottleneck value.
// ok is false when no perfect matching exists at all.
func (g *Graph) BottleneckPerfectMatching() (m Matching, bottleneck float64, ok bool) {
	if g.nLeft == 0 {
		return Matching{}, 0, true
	}
	weights := make([]float64, 0, len(g.edges))
	for _, e := range g.edges {
		weights = append(weights, e.W)
	}
	sort.Float64s(weights)
	// Deduplicate.
	uniq := weights[:0]
	for i, w := range weights {
		if i == 0 || w != uniq[len(uniq)-1] {
			uniq = append(uniq, w)
		}
	}
	if len(uniq) == 0 {
		return nil, 0, false
	}
	// Is there a perfect matching at all?
	if m := g.MaximumMatching(nil); m.Size() != g.nLeft {
		return nil, 0, false
	}
	lo, hi := 0, len(uniq)-1
	var best Matching
	bestW := uniq[hi]
	for lo <= hi {
		mid := (lo + hi) / 2
		t := uniq[mid]
		m := g.MaximumMatching(func(e WeightedEdge) bool { return e.W <= t })
		if m.Size() == g.nLeft {
			best, bestW = m, t
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, bestW, true
}
