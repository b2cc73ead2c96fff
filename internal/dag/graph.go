package dag

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// TaskID identifies a task (node) of a Graph. IDs are dense integers assigned
// at AddTask time, starting from 0.
type TaskID int

// Adj is one directed adjacency: the far endpoint of an edge and the data
// volume V carried along it.
type Adj struct {
	To     TaskID
	Volume float64
}

// Edge is a fully specified directed edge, used for enumeration and
// serialization.
type Edge struct {
	Src, Dst TaskID
	Volume   float64
}

// Graph is a mutable weighted DAG. The zero value is an empty graph ready to
// use. Graph methods never mutate the graph except AddTask/AddEdge/SetVolume.
//
// Acyclicity is not enforced on every AddEdge (that would be quadratic);
// call Validate or TopologicalOrder to check it once construction is done.
type Graph struct {
	name  string
	succs [][]Adj
	preds [][]Adj
	e     int

	// flat memoizes the frozen CSR view (Freeze). Mutators clear it; the
	// atomic makes lazy freezing safe under concurrent readers. Note the
	// atomic makes Graph non-copyable as a value — use Clone.
	flat atomic.Pointer[Flat]

	// arena is the reusable decode storage carved by rebuild; nil until the
	// graph is first decoded into. See arena.go.
	arena *graphArena
}

// Common construction and lookup errors.
var (
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrSelfLoop      = errors.New("dag: self loop")
	ErrDuplicateEdge = errors.New("dag: duplicate edge")
	ErrNoSuchTask    = errors.New("dag: no such task")
	ErrNoSuchEdge    = errors.New("dag: no such edge")
	ErrNegVolume     = errors.New("dag: negative edge volume")
)

// New returns an empty graph with the given human-readable name.
func New(name string) *Graph { return &Graph{name: name} }

// NewWithTasks returns a graph pre-populated with n tasks and no edges.
func NewWithTasks(name string, n int) *Graph {
	g := New(name)
	for i := 0; i < n; i++ {
		g.AddTask()
	}
	return g
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// SetName renames the graph.
func (g *Graph) SetName(name string) { g.name = name }

// NumTasks returns v = |V|, the number of tasks.
func (g *Graph) NumTasks() int { return len(g.succs) }

// NumEdges returns e = |E|, the number of precedence edges.
func (g *Graph) NumEdges() int { return g.e }

// AddTask appends a new task and returns its ID.
func (g *Graph) AddTask() TaskID {
	g.flat.Store(nil)
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return TaskID(len(g.succs) - 1)
}

// Valid reports whether t is a task of g.
func (g *Graph) Valid(t TaskID) bool { return t >= 0 && int(t) < len(g.succs) }

// AddEdge inserts the precedence edge src -> dst carrying volume units of
// data. It rejects self loops, unknown endpoints, negative volumes and
// duplicate edges.
func (g *Graph) AddEdge(src, dst TaskID, volume float64) error {
	if !g.Valid(src) || !g.Valid(dst) {
		return fmt.Errorf("%w: edge (%d,%d)", ErrNoSuchTask, src, dst)
	}
	if src == dst {
		return fmt.Errorf("%w: task %d", ErrSelfLoop, src)
	}
	if volume < 0 {
		return fmt.Errorf("%w: edge (%d,%d) volume %g", ErrNegVolume, src, dst, volume)
	}
	for _, a := range g.succs[src] {
		if a.To == dst {
			return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, src, dst)
		}
	}
	g.flat.Store(nil)
	g.succs[src] = append(g.succs[src], Adj{To: dst, Volume: volume})
	g.preds[dst] = append(g.preds[dst], Adj{To: src, Volume: volume})
	g.e++
	return nil
}

// MustAddEdge is AddEdge but panics on error; intended for tests and
// generators building graphs from trusted structure.
func (g *Graph) MustAddEdge(src, dst TaskID, volume float64) {
	if err := g.AddEdge(src, dst, volume); err != nil {
		panic(err)
	}
}

// Succs returns the immediate successors Γ+(t). The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Succs(t TaskID) []Adj { return g.succs[t] }

// Preds returns the immediate predecessors Γ−(t). The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Preds(t TaskID) []Adj { return g.preds[t] }

// OutDegree returns |Γ+(t)|.
func (g *Graph) OutDegree(t TaskID) int { return len(g.succs[t]) }

// InDegree returns |Γ−(t)|.
func (g *Graph) InDegree(t TaskID) int { return len(g.preds[t]) }

// Volume returns V(src,dst), the data volume on edge src->dst.
func (g *Graph) Volume(src, dst TaskID) (float64, error) {
	if !g.Valid(src) || !g.Valid(dst) {
		return 0, fmt.Errorf("%w: edge (%d,%d)", ErrNoSuchTask, src, dst)
	}
	for _, a := range g.succs[src] {
		if a.To == dst {
			return a.Volume, nil
		}
	}
	return 0, fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, src, dst)
}

// SetVolume updates V(src,dst) on an existing edge.
func (g *Graph) SetVolume(src, dst TaskID, volume float64) error {
	if volume < 0 {
		return fmt.Errorf("%w: edge (%d,%d) volume %g", ErrNegVolume, src, dst, volume)
	}
	for i, a := range g.succs[src] {
		if a.To == dst {
			g.flat.Store(nil)
			g.succs[src][i].Volume = volume
			for j, b := range g.preds[dst] {
				if b.To == src {
					g.preds[dst][j].Volume = volume
				}
			}
			return nil
		}
	}
	return fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, src, dst)
}

// ScaleVolumes multiplies every edge volume by factor (factor must be >= 0).
// Used by the workload generator to hit a target granularity.
func (g *Graph) ScaleVolumes(factor float64) error {
	if factor < 0 {
		return fmt.Errorf("%w: scale factor %g", ErrNegVolume, factor)
	}
	g.flat.Store(nil)
	for t := range g.succs {
		for i := range g.succs[t] {
			g.succs[t][i].Volume *= factor
		}
		for i := range g.preds[t] {
			g.preds[t][i].Volume *= factor
		}
	}
	return nil
}

// Edges enumerates all edges in (src, then insertion) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.e)
	for t := range g.succs {
		for _, a := range g.succs[t] {
			out = append(out, Edge{Src: TaskID(t), Dst: a.To, Volume: a.Volume})
		}
	}
	return out
}

// Entries returns the entry tasks (no predecessors) in increasing ID order.
func (g *Graph) Entries() []TaskID {
	var out []TaskID
	for t := range g.preds {
		if len(g.preds[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// Exits returns the exit tasks (no successors) in increasing ID order.
func (g *Graph) Exits() []TaskID {
	var out []TaskID
	for t := range g.succs {
		if len(g.succs[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{name: g.name, e: g.e}
	c.succs = make([][]Adj, len(g.succs))
	c.preds = make([][]Adj, len(g.preds))
	for i := range g.succs {
		c.succs[i] = append([]Adj(nil), g.succs[i]...)
		c.preds[i] = append([]Adj(nil), g.preds[i]...)
	}
	return c
}

// Validate checks structural invariants: adjacency symmetry, edge count and
// acyclicity. It returns nil for a well-formed DAG.
func (g *Graph) Validate() error {
	fwd := 0
	for t := range g.succs {
		fwd += len(g.succs[t])
		for _, a := range g.succs[t] {
			if !g.Valid(a.To) {
				return fmt.Errorf("%w: successor %d of %d", ErrNoSuchTask, a.To, t)
			}
			found := false
			for _, b := range g.preds[a.To] {
				if b.To == TaskID(t) {
					if b.Volume != a.Volume {
						return fmt.Errorf("dag: volume mismatch on edge (%d,%d): %g vs %g", t, a.To, a.Volume, b.Volume)
					}
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("dag: missing reverse adjacency for edge (%d,%d)", t, a.To)
			}
		}
	}
	if fwd != g.e {
		return fmt.Errorf("dag: edge count %d does not match adjacency size %d", g.e, fwd)
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("dag %q: %d tasks, %d edges", g.name, g.NumTasks(), g.NumEdges())
}

// sortedSuccs returns Γ+(t) sorted by target ID. It allocates; intended for
// deterministic output paths (serialization, printing), not hot loops.
func (g *Graph) sortedSuccs(t TaskID) []Adj {
	out := append([]Adj(nil), g.succs[t]...)
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}
