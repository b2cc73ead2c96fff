package dag

import (
	"fmt"
	"io"
	"sort"
)

// WriteDOT renders the graph in Graphviz DOT format, edge labels carrying
// the data volumes. Output is deterministic (tasks and successors sorted),
// so it is diff- and test-friendly.
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", g.name); err != nil {
		return err
	}
	for t := 0; t < g.NumTasks(); t++ {
		if _, err := fmt.Fprintf(w, "  t%d;\n", t); err != nil {
			return err
		}
	}
	for t := 0; t < g.NumTasks(); t++ {
		for _, a := range g.sortedSuccs(TaskID(t)) {
			if _, err := fmt.Fprintf(w, "  t%d -> t%d [label=\"%g\"];\n", t, a.To, a.Volume); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Stats summarizes structural properties of a DAG.
type Stats struct {
	Tasks, Edges     int
	Entries, Exits   int
	Levels           int
	Width            int
	MaxInDegree      int
	MaxOutDegree     int
	MeanDegree       float64
	TotalVolume      float64
	CriticalPathHops int
}

// ComputeStats derives the structural statistics of the graph.
func (g *Graph) ComputeStats() (*Stats, error) {
	st := &Stats{
		Tasks:       g.NumTasks(),
		Edges:       g.NumEdges(),
		Entries:     len(g.Entries()),
		Exits:       len(g.Exits()),
		TotalVolume: g.TotalVolume(),
	}
	if g.NumTasks() == 0 {
		return st, nil
	}
	_, levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	st.Levels = levels
	w, err := g.Width()
	if err != nil {
		return nil, err
	}
	st.Width = w
	for t := 0; t < g.NumTasks(); t++ {
		if d := g.InDegree(TaskID(t)); d > st.MaxInDegree {
			st.MaxInDegree = d
		}
		if d := g.OutDegree(TaskID(t)); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	st.MeanDegree = float64(g.NumEdges()) / float64(g.NumTasks())
	path, _, err := g.CriticalPath(UnitNodeCost, ZeroEdgeCost)
	if err != nil {
		return nil, err
	}
	st.CriticalPathHops = len(path)
	return st, nil
}

// String renders the stats compactly.
func (s *Stats) String() string {
	return fmt.Sprintf("v=%d e=%d entries=%d exits=%d levels=%d width=%d deg≤(%d,%d) mean-deg=%.2f",
		s.Tasks, s.Edges, s.Entries, s.Exits, s.Levels, s.Width, s.MaxInDegree, s.MaxOutDegree, s.MeanDegree)
}

// Subgraph returns the induced subgraph on the given task set, with tasks
// renumbered densely in ascending original-ID order. The second return value
// maps new IDs back to the original ones. Useful for extracting a failing
// region during debugging.
func (g *Graph) Subgraph(tasks []TaskID) (*Graph, []TaskID, error) {
	picked := append([]TaskID(nil), tasks...)
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	newID := make(map[TaskID]TaskID, len(picked))
	for i, t := range picked {
		if !g.Valid(t) {
			return nil, nil, fmt.Errorf("%w: %d", ErrNoSuchTask, t)
		}
		if _, dup := newID[t]; dup {
			return nil, nil, fmt.Errorf("dag: duplicate task %d in subgraph selection", t)
		}
		newID[t] = TaskID(i)
	}
	sub := NewWithTasks(g.name+"-sub", len(picked))
	for _, t := range picked {
		for _, a := range g.sortedSuccs(t) {
			if dst, ok := newID[a.To]; ok {
				sub.MustAddEdge(newID[t], dst, a.Volume)
			}
		}
	}
	return sub, picked, nil
}
