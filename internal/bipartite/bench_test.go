package bipartite

import (
	"math/rand"
	"testing"
)

// benchGraph mirrors the MC-FTSA replica graphs: (ε+1)×(ε+1) with forced
// internal edges plus a dense remainder, at the paper's largest ε.
func benchGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(i, j, rng.Float64()*100) //nolint:errcheck
		}
	}
	return g
}

func BenchmarkHopcroftKarp(b *testing.B) {
	g := benchGraph(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := g.MaximumMatching(nil); m.Size() != 64 {
			b.Fatal("incomplete matching")
		}
	}
}

func BenchmarkBottleneckMatching(b *testing.B) {
	g := benchGraph(16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := g.BottleneckPerfectMatching(); !ok {
			b.Fatal("no matching")
		}
	}
}

func BenchmarkGreedyMatching(b *testing.B) {
	g := benchGraph(16, 3)
	order := make([]int, g.NumEdges())
	for i := range order {
		order[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GreedyOrderedMatchingInto(order, nil, nil)
	}
}
