package workload

import (
	"fmt"

	"ftsched/internal/dag"
)

// The classic structured task-graph families used across the DAG-scheduling
// literature (and by the examples in this repository). Every constructor
// takes a uniform data volume per edge; callers wanting heterogeneous
// volumes build their own graph.

// Chain returns a linear chain of n tasks.
func Chain(n int, volume float64) (*dag.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: chain needs >=1 task, got %d", n)
	}
	g := dag.NewWithTasks(fmt.Sprintf("chain-%d", n), n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(dag.TaskID(i), dag.TaskID(i+1), volume)
	}
	return g, nil
}

// ForkJoin returns a fork-join graph: one source task fanning out to width
// parallel tasks per stage, re-joining into a synchronization task between
// stages. Total tasks: 1 + stages*(width+1).
func ForkJoin(width, stages int, volume float64) (*dag.Graph, error) {
	if width < 1 || stages < 1 {
		return nil, fmt.Errorf("workload: fork-join needs width,stages >= 1, got %d,%d", width, stages)
	}
	g := dag.New(fmt.Sprintf("forkjoin-w%d-s%d", width, stages))
	src := g.AddTask()
	prev := src
	for s := 0; s < stages; s++ {
		join := dag.TaskID(-1)
		workers := make([]dag.TaskID, width)
		for w := 0; w < width; w++ {
			workers[w] = g.AddTask()
			g.MustAddEdge(prev, workers[w], volume)
		}
		join = g.AddTask()
		for _, w := range workers {
			g.MustAddEdge(w, join, volume)
		}
		prev = join
	}
	return g, nil
}

// OutTree returns a complete out-tree (fan-out tree) with the given branching
// factor and depth; depth 0 is a single root.
func OutTree(branching, depth int, volume float64) (*dag.Graph, error) {
	if branching < 1 || depth < 0 {
		return nil, fmt.Errorf("workload: out-tree needs branching>=1, depth>=0, got %d,%d", branching, depth)
	}
	g := dag.New(fmt.Sprintf("outtree-b%d-d%d", branching, depth))
	root := g.AddTask()
	frontier := []dag.TaskID{root}
	for d := 0; d < depth; d++ {
		var next []dag.TaskID
		for _, p := range frontier {
			for b := 0; b < branching; b++ {
				c := g.AddTask()
				g.MustAddEdge(p, c, volume)
				next = append(next, c)
			}
		}
		frontier = next
	}
	return g, nil
}

// InTree returns a complete in-tree (reduction tree): the mirror of OutTree,
// with all leaves feeding toward a single sink.
func InTree(branching, depth int, volume float64) (*dag.Graph, error) {
	out, err := OutTree(branching, depth, volume)
	if err != nil {
		return nil, err
	}
	g := dag.NewWithTasks(fmt.Sprintf("intree-b%d-d%d", branching, depth), out.NumTasks())
	n := out.NumTasks()
	// Reverse every edge and mirror IDs so the sink gets the largest ID.
	for _, e := range out.Edges() {
		g.MustAddEdge(dag.TaskID(n-1-int(e.Dst)), dag.TaskID(n-1-int(e.Src)), e.Volume)
	}
	return g, nil
}

// GaussianElimination returns the task graph of column-oriented Gaussian
// elimination on an n×n matrix: pivot tasks Tkk and update tasks Tkj
// (k < j ≤ n) with the classic dependence structure; ~n²/2 tasks.
func GaussianElimination(n int, volume float64) (*dag.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: gaussian elimination needs n>=2, got %d", n)
	}
	g := dag.New(fmt.Sprintf("gauss-%d", n))
	// id[k][j] for 1<=k<j<=n plus pivots id[k][k].
	id := make(map[[2]int]dag.TaskID)
	for k := 1; k < n; k++ {
		id[[2]int{k, k}] = g.AddTask() // pivot step k
		for j := k + 1; j <= n; j++ {
			id[[2]int{k, j}] = g.AddTask() // update of column j at step k
		}
	}
	for k := 1; k < n; k++ {
		// Pivot k enables every update Tkj.
		for j := k + 1; j <= n; j++ {
			g.MustAddEdge(id[[2]int{k, k}], id[[2]int{k, j}], volume)
		}
		if k+1 < n {
			// Update Tk,k+1 produces the next pivot.
			g.MustAddEdge(id[[2]int{k, k + 1}], id[[2]int{k + 1, k + 1}], volume)
			// Update Tkj feeds update Tk+1,j.
			for j := k + 2; j <= n; j++ {
				g.MustAddEdge(id[[2]int{k, j}], id[[2]int{k + 1, j}], volume)
			}
		}
	}
	return g, nil
}

// FFT returns the task graph of a radix-2 FFT on 2^logN points: logN
// butterfly ranks of 2^logN tasks each, plus an input rank; every butterfly
// task depends on two tasks of the previous rank (the classic FFT DAG).
func FFT(logN int, volume float64) (*dag.Graph, error) {
	if logN < 1 || logN > 16 {
		return nil, fmt.Errorf("workload: fft needs 1<=logN<=16, got %d", logN)
	}
	n := 1 << logN
	g := dag.New(fmt.Sprintf("fft-%d", n))
	prev := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		prev[i] = g.AddTask()
	}
	for stage := 0; stage < logN; stage++ {
		cur := make([]dag.TaskID, n)
		span := 1 << stage
		for i := 0; i < n; i++ {
			cur[i] = g.AddTask()
		}
		for i := 0; i < n; i++ {
			partner := i ^ span
			g.MustAddEdge(prev[i], cur[i], volume)
			g.MustAddEdge(prev[partner], cur[i], volume)
		}
		prev = cur
	}
	return g, nil
}

// Stencil returns the task graph of a 2-D wavefront (Laplace/Gauss-Seidel
// sweep) over a rows×cols grid: task (i,j) depends on (i−1,j) and (i,j−1).
func Stencil(rows, cols int, volume float64) (*dag.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("workload: stencil needs rows,cols >= 1, got %d,%d", rows, cols)
	}
	g := dag.NewWithTasks(fmt.Sprintf("stencil-%dx%d", rows, cols), rows*cols)
	at := func(i, j int) dag.TaskID { return dag.TaskID(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i > 0 {
				g.MustAddEdge(at(i-1, j), at(i, j), volume)
			}
			if j > 0 {
				g.MustAddEdge(at(i, j-1), at(i, j), volume)
			}
		}
	}
	return g, nil
}
