package dag

import "testing"

func benchDAG(b *testing.B, n int) *Graph {
	b.Helper()
	g := randomDAG(42, n)
	if g.NumTasks() < 2 {
		b.Fatal("degenerate graph")
	}
	return g
}

func BenchmarkBottomLevels(b *testing.B) {
	g := benchDAG(b, 40)
	node := func(TaskID) float64 { return 1 }
	edge := func(_, _ TaskID, v float64) float64 { return v }
	b.Run("flat", func(b *testing.B) {
		f, err := g.Freeze()
		if err != nil {
			b.Fatal(err)
		}
		nodeS, edgeS := flatCosts(f, node, edge)
		out := make([]float64, f.NumTasks())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.BottomLevels(nodeS, edgeS, out)
		}
	})
}

// BenchmarkFreeze measures a cold CSR build (the memo is cleared every
// iteration, the way a mutation would).
func BenchmarkFreeze(b *testing.B) {
	g := benchDAG(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.flat.Store(nil)
		if _, err := g.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalBottomLevels contrasts repairing one dirty task's
// ancestor cone against recomputing every level from scratch, on a graph
// large enough for the cone to be a small fraction of the whole.
func BenchmarkIncrementalBottomLevels(b *testing.B) {
	// 100 layers of 4 tasks, fully connected layer to layer: 400 tasks,
	// 1584 edges, and a deep ancestor cone above the single dirty exit.
	const layers, width = 100, 4
	g := NewWithTasks("layered", layers*width)
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.MustAddEdge(TaskID(l*width+i), TaskID((l+1)*width+j), float64(1+i+j))
			}
		}
	}
	f, err := g.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	node := make([]float64, f.NumTasks())
	edge := make([]float64, f.NumEdges())
	for i := range node {
		node[i] = 1 + float64(i%7)
	}
	for i := range edge {
		edge[i] = float64(i % 11)
	}
	// Dirty an entry task: its bottom level changes every iteration but the
	// repair stops as soon as predecessors are unaffected, so the updater
	// touches a small cone while the scratch pass walks all 400 tasks.
	dirty := []TaskID{0}
	b.Run("scratch", func(b *testing.B) {
		out := make([]float64, f.NumTasks())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			node[dirty[0]] = 1 + float64(i%5)
			f.BottomLevels(node, edge, out)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		bl := f.BottomLevels(node, edge, nil)
		u := f.NewBottomLevelUpdater()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node[dirty[0]] = 1 + float64(i%5)
			u.Update(bl, node, edge, dirty)
		}
	})
}

func BenchmarkWidth(b *testing.B) {
	g := benchDAG(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Width(); err != nil {
			b.Fatal(err)
		}
	}
}
