package dag

import (
	"encoding/json"
	"fmt"
	"io"

	"ftsched/internal/wire"
)

// graphJSON is the on-disk representation MarshalJSON writes: a task count
// plus an edge list. Task labels are implicit (dense IDs), matching the
// paper's anonymous random graphs.
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
		for _, a := range g.sortedSuccs(TaskID(t)) {
			out.Edges = append(out.Edges, edgeJSON{Src: TaskID(t), Dst: a.To, Volume: a.Volume})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler through ScanJSON, so a graph
// file, a schedule's embedded graph and an HTTP body share one decoder.
func (g *Graph) UnmarshalJSON(data []byte) error { return wire.Unmarshal(data, g.ScanJSON) }

var (
	graphFields = wire.Fields{"name", "tasks", "edges"}
	edgeFields  = wire.Fields{"src", "dst", "volume"}
)

// ScanJSON decodes the graph value under s's cursor and validates it (dense
// endpoints, no self loops or duplicate edges, non-negative volumes, acyclic
// — the same invariants AddEdge + Validate enforce). Unknown members are
// skipped; null stands for the empty graph, a null edge for the zero edge
// (which rebuild refuses as a self loop).
//
// Decoding reuses the receiver's arena storage: a pooled request object that
// is decoded into repeatedly (the serving layer's door) performs no
// graph-shaped heap allocations once warm. On a validation error the
// receiver is reset to the empty graph; its previous contents are not
// preserved.
func (g *Graph) ScanJSON(s *wire.Scanner) error {
	return g.ScanJSONMax(s, max(minTaskBound, s.Len()))
}

// minTaskBound is the task count any document may declare, whatever its
// size: tasks without edges take no bytes, and rebuild's bookkeeping for this
// many is 4 MB. Past it ScanJSON allows one task per byte of the document.
const minTaskBound = 1 << 16

// ScanJSONMax is ScanJSON for a caller that knows better than ScanJSON's own
// bound how many tasks its document has room for — a request, which must
// carry a cost row per task besides the graph: a task count above maxTasks
// is refused before rebuild allocates by it. A task count is the one size a
// graph declares rather than spells out, so without a bound a 30-byte
// document could ask for terabytes; graph files, embedded graphs and request
// bodies all meet theirs here.
func (g *Graph) ScanJSONMax(s *wire.Scanner, maxTasks int) error {
	stage := edgeStagePool.Get().(*[]edgeJSON)
	defer edgeStagePool.Put(stage)
	name, tasks, edges := "", 0, (*stage)[:0]
	scanEdge := func() error {
		edges = append(edges, edgeJSON{})
		e := &edges[len(edges)-1]
		return s.Object(func(key []byte) error {
			switch edgeFields.Index(key) {
			case 0:
				return s.Int((*int)(&e.Src))
			case 1:
				return s.Int((*int)(&e.Dst))
			case 2:
				return s.Float(&e.Volume)
			}
			return s.Skip()
		})
	}
	err := s.Object(func(key []byte) error {
		switch graphFields.Index(key) {
		case 0:
			return s.String(&name)
		case 1:
			return s.Int(&tasks)
		case 2:
			edges = edges[:0] // a repeated key starts over; nothing is merged
			return s.Array(scanEdge)
		}
		return s.Skip()
	})
	*stage = edges // keep what the staging slice grew to
	if err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	if tasks > maxTasks {
		return fmt.Errorf("dag: %d tasks declared, the document has room for at most %d", tasks, maxTasks)
	}
	return g.rebuild(name, tasks, edges)
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
