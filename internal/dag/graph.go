package dag

import (
	"errors"
	"fmt"
	"math"
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
// use. Graph methods never mutate the graph except AddTask and AddEdge (and
// decoding, which replaces it whole).
//
// Acyclicity is not enforced on every AddEdge (that would be quadratic);
// call Validate or Freeze to check it once construction is done.
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
	ErrNegVolume     = errors.New("dag: edge volume is negative or not finite")
)

// validVolume reports whether v is a finite non-negative edge volume. NaN
// passes a "v < 0" check (every comparison with it is false), and an
// infinite volume times a zero delay is NaN; the schedulers' built-in min/max
// folds are exact only on numbers (see package kernel).
func validVolume(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

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
	if !validVolume(volume) {
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

// InDegree returns |Γ−(t)|.
func (g *Graph) InDegree(t TaskID) int { return len(g.preds[t]) }

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

// Validate reports ErrCycle unless g is acyclic. Every other invariant —
// dense endpoints, symmetric adjacency, no self loops or duplicate edges —
// holds by construction (AddEdge and decoding refuse what would break it).
func (g *Graph) Validate() error {
	_, err := g.Freeze()
	return err
}

// TotalVolume returns the sum of V over all edges.
func (g *Graph) TotalVolume() float64 {
	sum := 0.0
	for t := range g.succs {
		for _, a := range g.succs[t] {
			sum += a.Volume
		}
	}
	return sum
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
