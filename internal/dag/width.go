package dag

import (
	"math/bits"

	"ftsched/internal/bipartite"
)

// Width returns ω(G), the maximum number of pairwise independent tasks (the
// maximum antichain). By Dilworth's theorem ω equals the minimum number of
// chains covering the DAG, computed as v − |maximum matching| on the
// bipartite graph of the transitive closure (Fulkerson's construction).
//
// The paper uses ω to bound the size of the free-task list α (|α| ≤ ω).
// This computation is O(v·e) for the closure plus the matching; it is meant
// for analysis and tests, not for the scheduler hot path.
func (g *Graph) Width() (int, error) {
	f, err := g.Freeze()
	if err != nil {
		return 0, err
	}
	n := f.NumTasks()
	if n == 0 {
		return 0, nil
	}
	// Bitset transitive closure: reach[t] = set of strict descendants of t.
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	buf := make([]uint64, n*words)
	for t := 0; t < n; t++ {
		reach[t] = buf[t*words : (t+1)*words]
	}
	for _, t := range f.ReverseTopologicalOrder() {
		row := reach[t]
		for _, s := range f.SuccIDs(t) {
			row[s/64] |= 1 << (uint(s) % 64)
			child := reach[s]
			for w := 0; w < words; w++ {
				row[w] |= child[w]
			}
		}
	}
	bg := bipartite.New(n, n)
	for t := 0; t < n; t++ {
		row := reach[t]
		for w := 0; w < words; w++ {
			for bb := row[w]; bb != 0; bb &= bb - 1 {
				j := w*64 + bits.TrailingZeros64(bb)
				if err := bg.AddEdge(t, j, 0); err != nil {
					return 0, err
				}
			}
		}
	}
	m := bg.MaximumMatching(nil)
	return n - m.Size(), nil
}
