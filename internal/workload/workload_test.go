package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

func TestRandomDAGRespectsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultRandomDAGConfig()
	for i := 0; i < 20; i++ {
		g, err := RandomDAG(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v := g.NumTasks(); v < cfg.MinTasks || v > cfg.MaxTasks {
			t.Fatalf("v=%d outside [%d,%d]", v, cfg.MinTasks, cfg.MaxTasks)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for _, e := range g.Edges() {
			if e.Volume < cfg.MinVolume || e.Volume >= cfg.MaxVolume {
				t.Fatalf("volume %g outside [%g,%g)", e.Volume, cfg.MinVolume, cfg.MaxVolume)
			}
		}
		// Every non-entry task has a predecessor (generator guarantee).
		levels, n, err := g.Levels()
		if err != nil {
			t.Fatal(err)
		}
		if n < 2 {
			t.Fatalf("degenerate layering: %d levels", n)
		}
		for tsk, l := range levels {
			if l > 0 && g.InDegree(dag.TaskID(tsk)) == 0 {
				t.Fatalf("task %d at level %d has no predecessor", tsk, l)
			}
		}
	}
}

func TestRandomDAGConfigValidation(t *testing.T) {
	bad := []RandomDAGConfig{
		{MinTasks: 0, MaxTasks: 5, ShapeFactor: 1},
		{MinTasks: 5, MaxTasks: 2, ShapeFactor: 1},
		{MinTasks: 2, MaxTasks: 5, MinVolume: -1, ShapeFactor: 1},
		{MinTasks: 2, MaxTasks: 5, MinVolume: 5, MaxVolume: 1, ShapeFactor: 1},
		{MinTasks: 2, MaxTasks: 5, ShapeFactor: 0},
		{MinTasks: 2, MaxTasks: 5, ShapeFactor: 1, EdgeDensity: 1.5},
	}
	rng := rand.New(rand.NewSource(1))
	for i, cfg := range bad {
		if _, err := RandomDAG(rng, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRandomDAGShapeFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultRandomDAGConfig()
	cfg.MinTasks, cfg.MaxTasks = 100, 100

	cfg.ShapeFactor = 0.3
	wide, err := RandomDAG(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShapeFactor = 3.0
	deep, err := RandomDAG(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, wl, _ := wide.Levels()
	_, dl, _ := deep.Levels()
	if wl >= dl {
		t.Errorf("shape factor ineffective: wide has %d levels, deep %d", wl, dl)
	}
}

func TestErdosRenyiDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := ErdosRenyiDAG(rng, 50, 0.1, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for tsk := 1; tsk < 50; tsk++ {
		if g.InDegree(dag.TaskID(tsk)) == 0 {
			t.Fatalf("task %d disconnected", tsk)
		}
	}
	if _, err := ErdosRenyiDAG(rng, 0, 0.5, 1, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ErdosRenyiDAG(rng, 5, 1.5, 1, 2); err == nil {
		t.Error("p>1 accepted")
	}
}

// entries counts the tasks without predecessors.
func entries(g *dag.Graph) int {
	n := 0
	for t := 0; t < g.NumTasks(); t++ {
		if g.InDegree(dag.TaskID(t)) == 0 {
			n++
		}
	}
	return n
}

func TestFamilies(t *testing.T) {
	cases := []struct {
		name         string
		build        func() (*dag.Graph, error)
		tasks, edges int
	}{
		{"chain", func() (*dag.Graph, error) { return Chain(5, 1) }, 5, 4},
		{"independent", func() (*dag.Graph, error) { return dag.NewWithTasks("independent", 6), nil }, 6, 0},
		{"forkjoin", func() (*dag.Graph, error) { return ForkJoin(3, 2, 1) }, 9, 12},
		{"outtree", func() (*dag.Graph, error) { return OutTree(2, 3, 1) }, 15, 14},
		{"intree", func() (*dag.Graph, error) { return InTree(2, 3, 1) }, 15, 14},
		{"gauss4", func() (*dag.Graph, error) { return GaussianElimination(4, 1) }, 9, 11},
		{"fft8", func() (*dag.Graph, error) { return FFT(3, 1) }, 32, 48},
		{"stencil", func() (*dag.Graph, error) { return Stencil(3, 4, 1) }, 12, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if g.NumTasks() != tc.tasks {
				t.Errorf("tasks = %d, want %d", g.NumTasks(), tc.tasks)
			}
			if g.NumEdges() != tc.edges {
				t.Errorf("edges = %d, want %d", g.NumEdges(), tc.edges)
			}
		})
	}
}

func TestFamilyStructure(t *testing.T) {
	// Fork-join: exactly one entry and one exit.
	fj, err := ForkJoin(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if entries(fj) != 1 || len(fj.Exits()) != 1 {
		t.Errorf("fork-join entries=%d exits=%v", entries(fj), fj.Exits())
	}
	w, err := fj.Width()
	if err != nil {
		t.Fatal(err)
	}
	if w != 4 {
		t.Errorf("fork-join width = %d, want 4", w)
	}
	// In-tree: one exit, 2^depth entries.
	it, err := InTree(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Exits()) != 1 {
		t.Errorf("in-tree exits = %v", it.Exits())
	}
	if n := entries(it); n != 8 {
		t.Errorf("in-tree entries = %d, want 8", n)
	}
	// Stencil: single entry (0,0), single exit (rows-1,cols-1), width
	// min(rows,cols).
	st, err := Stencil(3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := st.Width(); w != 3 {
		t.Errorf("stencil width = %d, want 3", w)
	}
}

func TestFamilyErrors(t *testing.T) {
	if _, err := Chain(0, 1); err == nil {
		t.Error("Chain(0) accepted")
	}
	if _, err := ForkJoin(0, 1, 1); err == nil {
		t.Error("ForkJoin width 0 accepted")
	}
	if _, err := OutTree(0, 1, 1); err == nil {
		t.Error("OutTree branching 0 accepted")
	}
	if _, err := GaussianElimination(1, 1); err == nil {
		t.Error("GaussianElimination(1) accepted")
	}
	if _, err := FFT(0, 1); err == nil {
		t.Error("FFT(0) accepted")
	}
	if _, err := Stencil(0, 3, 1); err == nil {
		t.Error("Stencil rows 0 accepted")
	}
}

func TestInstanceGranularityScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, target := range []float64{0.2, 0.6, 1.0, 1.4, 2.0} {
		inst, err := NewInstance(rng, DefaultPaperConfig(target))
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Granularity()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-target) > 1e-9 {
			t.Errorf("granularity = %g, want %g", got, target)
		}
	}
}

func TestInstanceForGraphFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := GaussianElimination(6, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPaperConfig(1.0)
	cfg.Procs = 8
	inst, err := NewInstanceForGraph(rng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Platform.NumProcs() != 8 {
		t.Errorf("procs = %d", inst.Platform.NumProcs())
	}
	if inst.Costs.NumTasks() != g.NumTasks() {
		t.Errorf("cost rows = %d, want %d", inst.Costs.NumTasks(), g.NumTasks())
	}
	gr, err := inst.Granularity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gr-1.0) > 1e-9 {
		t.Errorf("granularity = %g", gr)
	}
}

// Zero disables the rescale; anything negative or non-finite is refused
// rather than silently producing an unscaled instance.
func TestPaperConfigGranularity(t *testing.T) {
	for _, tc := range []struct {
		g  float64
		ok bool
	}{
		{0, true},
		{0.2, true},
		{2, true},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		err := DefaultPaperConfig(tc.g).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("granularity %g: Validate() = %v, want ok=%v", tc.g, err, tc.ok)
		}
	}
}

func TestPaperConfigValidation(t *testing.T) {
	cfg := DefaultPaperConfig(1.0)
	cfg.Procs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("0 processors accepted")
	}
	cfg = DefaultPaperConfig(1.0)
	cfg.MinDelay, cfg.MaxDelay = 2, 1
	if err := cfg.Validate(); err == nil {
		t.Error("inverted delay range accepted")
	}
	cfg = DefaultPaperConfig(-1)
	if err := cfg.Validate(); err == nil {
		t.Error("negative granularity accepted")
	}
	rng := rand.New(rand.NewSource(1))
	inst, err := NewInstance(rng, DefaultPaperConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ScaleToGranularity(0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestPropGeneratedInstancesSchedulable(t *testing.T) {
	// Every generated instance is structurally sound: acyclic graph, full
	// cost coverage, positive granularity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultPaperConfig(1.0)
		cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 20, 40
		cfg.Procs = 6
		inst, err := NewInstance(rng, cfg)
		if err != nil {
			return false
		}
		if inst.Graph.Validate() != nil {
			return false
		}
		if inst.Costs.NumTasks() != inst.Graph.NumTasks() {
			return false
		}
		gr, err := platform.Granularity(inst.Graph, inst.Costs, inst.Platform)
		return err == nil && math.Abs(gr-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Granularity reports g(G,P) for the instance.
func (in *Instance) Granularity() (float64, error) {
	return platform.Granularity(in.Graph, in.Costs, in.Platform)
}
