package workload

import (
	"testing"

	"ftsched/internal/dag"
)

func TestCholeskyStructure(t *testing.T) {
	g, err := Cholesky(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Task count: Σ_k (1 + (n-1-k) + (n-1-k) + C(n-1-k,2)) for n=5: k=0:
	// 1+4+4+6=15; k=1: 1+3+3+3=10; k=2: 1+2+2+1=6; k=3: 1+1+1+0=3; k=4: 1.
	if g.NumTasks() != 35 {
		t.Errorf("tasks = %d, want 35", g.NumTasks())
	}
	// One entry (POTRF(0)), one exit (POTRF(n-1)).
	if got := entries(g); got != 1 {
		t.Errorf("entries = %d", got)
	}
	exits := g.Exits()
	if len(exits) != 1 {
		t.Errorf("exits = %v", exits)
	}
	// Depth grows linearly with n: each k level adds POTRF->TRSM->SYRK.
	_, levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if levels < 3*4 {
		t.Errorf("levels = %d, want >= 12", levels)
	}
}

func TestLUStructure(t *testing.T) {
	g, err := LU(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Task count: Σ_k (1 + 2(n-1-k) + (n-1-k)²) for n=4: k=0: 1+6+9=16;
	// k=1: 1+4+4=9; k=2: 1+2+1=4; k=3: 1. Total 30.
	if g.NumTasks() != 30 {
		t.Errorf("tasks = %d, want 30", g.NumTasks())
	}
	if got := entries(g); got != 1 {
		t.Errorf("entries = %d", got)
	}
	if got := len(g.Exits()); got != 1 {
		t.Errorf("exits = %d", got)
	}
}

func TestPipelineStructure(t *testing.T) {
	g, err := Pipeline(4, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 12 {
		t.Errorf("tasks = %d", g.NumTasks())
	}
	// Fully connected consecutive layers: 3 gaps × 9 edges.
	if g.NumEdges() != 27 {
		t.Errorf("edges = %d, want 27", g.NumEdges())
	}
	w, err := g.Width()
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Errorf("width = %d, want 3", w)
	}
	// Every stage-1 task is an entry; every last-stage task an exit.
	if entries(g) != 3 || len(g.Exits()) != 3 {
		t.Errorf("entries/exits %d/%d", entries(g), len(g.Exits()))
	}
}

func TestKernelErrors(t *testing.T) {
	if _, err := Cholesky(1, 1); err == nil {
		t.Error("Cholesky(1) accepted")
	}
	if _, err := LU(0, 1); err == nil {
		t.Error("LU(0) accepted")
	}
	if _, err := Pipeline(0, 3, 1); err == nil {
		t.Error("Pipeline(0) accepted")
	}
}

func TestKernelsHaveSingleCriticalChain(t *testing.T) {
	// Sanity: in both factorizations, the diagonal kernels form a chain,
	// so the graph's level count is at least n.
	for n := 3; n <= 6; n++ {
		ch, err := Cholesky(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, lc, err := ch.Levels()
		if err != nil {
			t.Fatal(err)
		}
		if lc < n {
			t.Errorf("cholesky(%d) levels %d < n", n, lc)
		}
		lu, err := LU(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, ll, err := lu.Levels()
		if err != nil {
			t.Fatal(err)
		}
		if ll < n {
			t.Errorf("lu(%d) levels %d < n", n, ll)
		}
	}
}

func TestKernelsAreSchedulableUnits(t *testing.T) {
	// The kernels integrate with the instance machinery.
	g, err := Cholesky(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	for tsk := 0; tsk < g.NumTasks(); tsk++ {
		if g.InDegree(dag.TaskID(tsk)) == 0 && len(g.Succs(dag.TaskID(tsk))) == 0 {
			t.Errorf("isolated task %d", tsk)
		}
	}
}
