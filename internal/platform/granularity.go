package platform

import (
	"errors"

	"ftsched/internal/dag"
)

// ErrNoEdges is returned by Granularity for graphs without communications,
// whose granularity is undefined (division by zero).
var ErrNoEdges = errors.New("platform: granularity undefined for a graph with no edges")

// Granularity computes g(G,P) exactly as defined in Section 2 of the paper:
// the ratio of the sum over tasks of the *slowest* computation time of each
// task, to the sum over edges of the *slowest* communication time along each
// edge (volume times the slowest link delay). A graph is coarse grain when
// g >= 1.
func Granularity(g *dag.Graph, cm *CostModel, p *Platform) (float64, error) {
	if g.NumEdges() == 0 {
		return 0, ErrNoEdges
	}
	comp := 0.0
	for t := 0; t < g.NumTasks(); t++ {
		comp += cm.Max(dag.TaskID(t))
	}
	slowest := p.MaxDelay()
	comm := g.TotalVolume() * slowest
	if comm == 0 {
		return 0, ErrNoEdges
	}
	return comp / comm, nil
}
