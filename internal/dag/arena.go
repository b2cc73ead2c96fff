package dag

import (
	"fmt"
	"sync"
)

// graphArena is the reusable backing storage a Graph decodes into: one flat
// Adj block carved into per-task successor and predecessor rows, plus the
// integer scratch of the validation passes. A service decoding thousands of
// graph-shaped requests reuses one arena per pooled request object, so a
// warm decode performs no graph-shaped heap allocations — the sync.Pool
// discipline of internal/kernel applied to the wire boundary.
type graphArena struct {
	adj   []Adj   // backing for all succ rows, then all pred rows
	ints  []int32 // degree counts and Kahn scratch (2n for degrees, n for indegrees, n for the queue)
	succs [][]Adj // staged row headers, assigned to the graph on success
	preds [][]Adj
}

// growAdj is kernel.Grow for the arena's types (the kernel imports dag, so
// dag keeps local copies).
func growAdj(buf []Adj, n int) []Adj {
	if cap(buf) < n {
		return make([]Adj, n)
	}
	return buf[:n]
}

func growInts(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growRows(buf [][]Adj, n int) [][]Adj {
	if cap(buf) < n {
		return make([][]Adj, n)
	}
	return buf[:n]
}

// rebuild replaces g's contents with the decoded (name, tasks, edges),
// reusing g's arena storage. It enforces the same invariants construction
// via AddTask/AddEdge + Validate does: dense endpoints, no self loops, no
// negative volumes, no duplicate edges, acyclic. On error the receiver is
// reset to the empty graph (its previous contents may alias the arena being
// rebuilt, so they cannot be preserved).
//
// Successor rows are carved with their exact capacity, so a later AddEdge on
// a rebuilt graph appends copy-on-grow and never clobbers a neighbor row.
func (g *Graph) rebuild(name string, tasks int, edges []edgeJSON) error {
	if tasks < 0 {
		return fmt.Errorf("dag: negative task count %d", tasks)
	}
	g.flat.Store(nil)
	g.name, g.succs, g.preds, g.e = name, nil, nil, 0
	if g.arena == nil {
		g.arena = new(graphArena)
	}
	a := g.arena
	n, e := tasks, len(edges)

	// Pass 1: validate endpoints and count degrees.
	deg := growInts(a.ints, 4*n)
	a.ints = deg
	outdeg, indeg := deg[:n], deg[n:2*n]
	clear(outdeg)
	clear(indeg)
	for _, ed := range edges {
		if ed.Src < 0 || int(ed.Src) >= n || ed.Dst < 0 || int(ed.Dst) >= n {
			return fmt.Errorf("%w: edge (%d,%d)", ErrNoSuchTask, ed.Src, ed.Dst)
		}
		if ed.Src == ed.Dst {
			return fmt.Errorf("%w: task %d", ErrSelfLoop, ed.Src)
		}
		if !validVolume(ed.Volume) {
			return fmt.Errorf("%w: edge (%d,%d) volume %g", ErrNegVolume, ed.Src, ed.Dst, ed.Volume)
		}
		outdeg[ed.Src]++
		indeg[ed.Dst]++
	}

	// Carve empty rows with exact capacities from one block.
	block := growAdj(a.adj, 2*e)
	a.adj = block
	succs := growRows(a.succs, n)
	preds := growRows(a.preds, n)
	a.succs, a.preds = succs, preds
	off := 0
	for t := 0; t < n; t++ {
		succs[t] = block[off : off : off+int(outdeg[t])]
		off += int(outdeg[t])
	}
	for t := 0; t < n; t++ {
		preds[t] = block[off : off : off+int(indeg[t])]
		off += int(indeg[t])
	}

	// Pass 2: fill adjacency in edge order (the order AddEdge calls would
	// have run in), rejecting duplicates with the same row scan AddEdge uses.
	for _, ed := range edges {
		row := succs[ed.Src]
		for _, x := range row {
			if x.To == ed.Dst {
				return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, ed.Src, ed.Dst)
			}
		}
		succs[ed.Src] = append(row, Adj{To: ed.Dst, Volume: ed.Volume})
		preds[ed.Dst] = append(preds[ed.Dst], Adj{To: ed.Src, Volume: ed.Volume})
	}

	// Pass 3: acyclicity via Kahn over the arena scratch.
	kahn, queue := deg[2*n:3*n], deg[3*n:4*n]
	for t := 0; t < n; t++ {
		kahn[t] = indeg[t]
	}
	queue = queue[:0]
	for t := 0; t < n; t++ {
		if kahn[t] == 0 {
			queue = append(queue, int32(t))
		}
	}
	seen := 0
	for head := 0; head < len(queue); head++ {
		t := queue[head]
		seen++
		for _, sa := range succs[t] {
			kahn[sa.To]--
			if kahn[sa.To] == 0 {
				queue = append(queue, int32(sa.To))
			}
		}
	}
	if seen != n {
		return ErrCycle
	}

	g.succs, g.preds, g.e = succs, preds, e
	return nil
}

// edgeStagePool recycles the edge list a graph decode stages between the
// wire and rebuild's two passes, so a decode into a fresh Graph does not
// grow a new one per request.
var edgeStagePool = sync.Pool{New: func() any { return new([]edgeJSON) }}
