package dag

import (
	"encoding/json"
	"fmt"
	"io"
)

// graphJSON is the on-disk representation: a task count plus an edge list.
// Task labels are implicit (dense IDs), matching the paper's anonymous random
// graphs.
type graphJSON struct {
	Name  string     `json:"name"`
	Tasks int        `json:"tasks"`
	Edges []edgeJSON `json:"edges"`
}

type edgeJSON struct {
	Src    TaskID  `json:"src"`
	Dst    TaskID  `json:"dst"`
	Volume float64 `json:"volume"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := graphJSON{Name: g.name, Tasks: g.NumTasks(), Edges: make([]edgeJSON, 0, g.e)}
	for t := 0; t < g.NumTasks(); t++ {
		for _, a := range g.SortedSuccs(TaskID(t)) {
			out.Edges = append(out.Edges, edgeJSON{Src: TaskID(t), Dst: a.To, Volume: a.Volume})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded graph
// (dense endpoints, no self loops or duplicate edges, non-negative volumes,
// acyclic — the same invariants AddEdge + Validate enforce).
//
// Decoding reuses the receiver's arena storage: a pooled request object that
// is decoded into repeatedly (the serving layer's door) performs no
// graph-shaped heap allocations once warm. On error the receiver is reset to
// the empty graph; its previous contents are not preserved.
func (g *Graph) UnmarshalJSON(data []byte) error {
	in := graphScratchPool.Get().(*graphJSON)
	defer func() {
		in.Name, in.Tasks, in.Edges = "", 0, in.Edges[:0]
		graphScratchPool.Put(in)
	}()
	// encoding/json reuses the slice elements within capacity as they are:
	// zero them, or an edge that omits a field (or is null) would keep what
	// the previous payload left at its index.
	clear(in.Edges[:cap(in.Edges)])
	in.Name, in.Tasks, in.Edges = "", 0, in.Edges[:0]
	if err := json.Unmarshal(data, in); err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	return g.rebuild(in.Name, in.Tasks, in.Edges)
}

// WriteTo serializes g as indented JSON.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// Read decodes a graph from JSON produced by WriteTo / MarshalJSON.
func Read(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}
