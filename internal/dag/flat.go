package dag

// Flat is a frozen CSR (compressed sparse row) view of a Graph: the
// slice-of-slices adjacency flattened into parallel int32 index arrays plus a
// contiguous volume array, with the forward and reverse topological orders,
// the topological position of every task and the exit set computed once at
// freeze time. It is immutable after Freeze and therefore safe to share
// across goroutines without synchronization. It is the package's one
// traversal: every topological walk and path length goes through it.
//
// The flat layout exists for the hot loops: walking a CSR range touches one
// cache line per few adjacencies instead of chasing a slice header per task,
// and the precomputed orders remove a per-call O(V+E) Kahn pass.
//
// Edge identity: the edges of the graph are numbered 0..E-1 in successor-CSR
// order (tasks ascending, then insertion order within a task — the same order
// Graph.Edges enumerates). Successor slot i of task t is edge
// SuccEdgeLo(t)+i, and per-edge cost slices passed to BottomLevels are
// indexed by this edge ID. The predecessor side preserves the Graph's own
// Preds order (AddEdge call order).
type Flat struct {
	n int // tasks
	e int // edges

	succOff []int32   // len n+1: succ CSR row offsets
	succTo  []int32   // len e: successor task IDs, edge-ID order
	succVol []float64 // len e: edge volumes, edge-ID order

	predOff []int32   // len n+1: pred CSR row offsets
	predTo  []int32   // len e: predecessor task IDs, Graph.Preds order
	predVol []float64 // len e: edge volumes, Graph.Preds order

	topo    []TaskID // forward topological order (Kahn, smallest-ID-first FIFO)
	rtopo   []TaskID // reverse of topo
	topoPos []int32  // task -> index in topo (the incremental updater's heap key)
	exits   []TaskID // tasks with no successors, ascending
}

// Freeze builds (or returns the memoized) flat CSR view of g. The view is
// built once per graph shape: mutating the graph (AddTask, AddEdge, decoding
// into it) invalidates the memo and the next Freeze rebuilds. Freezing fails
// with ErrCycle on a cyclic graph.
//
// The returned Flat is immutable and shared: every caller freezing the same
// unmutated graph gets the same view, which is what lets the scheduler
// kernel, the replay engine and the tuner all walk one CSR per instance.
func (g *Graph) Freeze() (*Flat, error) {
	if f := g.flat.Load(); f != nil {
		return f, nil
	}
	f, err := freeze(g)
	if err != nil {
		return nil, err
	}
	// A concurrent Freeze may have raced us; either view is equivalent, so
	// the first store wins and the loser's build is garbage.
	if !g.flat.CompareAndSwap(nil, f) {
		if cur := g.flat.Load(); cur != nil {
			return cur, nil
		}
	}
	return f, nil
}

// freeze does the actual CSR construction.
func freeze(g *Graph) (*Flat, error) {
	n, e := g.NumTasks(), g.NumEdges()
	f := &Flat{
		n:       n,
		e:       e,
		succOff: make([]int32, n+1),
		succTo:  make([]int32, e),
		succVol: make([]float64, e),
		predOff: make([]int32, n+1),
		predTo:  make([]int32, e),
		predVol: make([]float64, e),
		topoPos: make([]int32, n),
	}
	// Successor CSR in edge-ID order: tasks ascending, insertion order within.
	off := int32(0)
	for t := 0; t < n; t++ {
		f.succOff[t] = off
		for _, a := range g.succs[t] {
			f.succTo[off] = int32(a.To)
			f.succVol[off] = a.Volume
			off++
		}
	}
	f.succOff[n] = off
	// Predecessor CSR preserving Graph.Preds order.
	off = 0
	for t := 0; t < n; t++ {
		f.predOff[t] = off
		for _, a := range g.preds[t] {
			f.predTo[off] = int32(a.To)
			f.predVol[off] = a.Volume
			off++
		}
	}
	f.predOff[n] = off
	// Forward topological order: Kahn with a FIFO over an ascending initial
	// scan, so among tasks ready together the smaller ID comes first.
	indeg := make([]int32, n)
	for t := 0; t < n; t++ {
		indeg[t] = f.predOff[t+1] - f.predOff[t]
	}
	order := make([]TaskID, 0, n)
	head := 0
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			order = append(order, TaskID(t))
		}
	}
	for head < len(order) {
		t := order[head]
		head++
		for _, s := range f.SuccIDs(t) {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, TaskID(s))
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	f.topo = order
	f.rtopo = make([]TaskID, n)
	for i, t := range order {
		f.rtopo[n-1-i] = t
		f.topoPos[t] = int32(i)
	}
	// Exit set, ascending ID like Graph.Exits.
	for t := 0; t < n; t++ {
		if f.OutDegree(TaskID(t)) == 0 {
			f.exits = append(f.exits, TaskID(t))
		}
	}
	return f, nil
}

// NumTasks returns |V|.
func (f *Flat) NumTasks() int { return f.n }

// NumEdges returns |E|.
func (f *Flat) NumEdges() int { return f.e }

// OutDegree returns |Γ+(t)|.
func (f *Flat) OutDegree(t TaskID) int { return int(f.succOff[t+1] - f.succOff[t]) }

// InDegree returns |Γ−(t)|.
func (f *Flat) InDegree(t TaskID) int { return int(f.predOff[t+1] - f.predOff[t]) }

// SuccIDs returns the successor task IDs of t in edge-ID order. The slice
// aliases the frozen view and must not be modified.
func (f *Flat) SuccIDs(t TaskID) []int32 { return f.succTo[f.succOff[t]:f.succOff[t+1]] }

// SuccVolumes returns the volumes parallel to SuccIDs(t).
func (f *Flat) SuccVolumes(t TaskID) []float64 { return f.succVol[f.succOff[t]:f.succOff[t+1]] }

// SuccEdgeLo returns the edge ID of the first successor edge of t; successor
// slot i of t is edge SuccEdgeLo(t)+i.
func (f *Flat) SuccEdgeLo(t TaskID) int32 { return f.succOff[t] }

// PredIDs returns the predecessor task IDs of t, in the same order
// Graph.Preds(t) yields them. The slice aliases the frozen view.
func (f *Flat) PredIDs(t TaskID) []int32 { return f.predTo[f.predOff[t]:f.predOff[t+1]] }

// PredVolumes returns the volumes parallel to PredIDs(t).
func (f *Flat) PredVolumes(t TaskID) []float64 { return f.predVol[f.predOff[t]:f.predOff[t+1]] }

// TopologicalOrder returns the memoized forward topological order. The slice
// is owned by the frozen view: callers must treat it as read-only.
func (f *Flat) TopologicalOrder() []TaskID { return f.topo }

// ReverseTopologicalOrder returns the memoized reverse topological order
// (every task after all of its successors), read-only.
func (f *Flat) ReverseTopologicalOrder() []TaskID { return f.rtopo }

// Exits returns the exit tasks in ascending ID order, read-only.
func (f *Flat) Exits() []TaskID { return f.exits }

// BottomLevels computes the static bottom levels of Section 4.1 over
// precomputed cost slices: node[t] is the node cost of task t and edge[i] the
// communication cost of edge ID i. It writes into out when it has the
// capacity (callers recycling scratch pass their buffer; pass nil to
// allocate) and returns the result.
//
//	bℓ(t) = node[t]                                  if Γ+(t) = ∅
//	bℓ(t) = max over edges i = (t,t*) of
//	          node[t] + edge[i] + bℓ(t*)             otherwise
//
// i.e. the length of the longest path from t to an exit task, counting t's
// own cost and the communications along the path. The walk is the memoized
// reverse topological order, so there is no per-call sort and no allocation
// when out has room.
func (f *Flat) BottomLevels(node, edge []float64, out []float64) []float64 {
	f.checkCosts(node, edge)
	bl := growFloats(out, f.n)
	for _, t := range f.rtopo {
		lo, hi := f.succOff[t], f.succOff[t+1]
		if lo == hi {
			bl[t] = node[t]
			continue
		}
		best := 0.0
		for i := lo; i < hi; i++ {
			best = max(best, node[t]+edge[i]+bl[f.succTo[i]])
		}
		bl[t] = best
	}
	return bl
}

// checkCosts validates the cost-slice shapes once, outside the hot loops.
func (f *Flat) checkCosts(node, edge []float64) {
	if len(node) != f.n || len(edge) != f.e {
		panic("dag: cost slices do not match the frozen graph (node per task, edge per edge ID)")
	}
}

// growFloats is kernel.Grow for float64 (the kernel imports dag, so dag keeps
// its own copy).
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
