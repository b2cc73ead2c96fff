package dag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := NewWithTasks("diamond", 4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 20)
	g.MustAddEdge(1, 3, 30)
	g.MustAddEdge(2, 3, 40)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumTasks() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d tasks, %d edges", g.NumTasks(), g.NumEdges())
	}
	if got := g.InDegree(3); got != 2 {
		t.Errorf("InDegree(3) = %d", got)
	}
	if succs := g.Succs(0); len(succs) != 2 || succs[1] != (Adj{To: 2, Volume: 20}) {
		t.Errorf("Succs(0) = %v", succs)
	}
	if tot := g.TotalVolume(); tot != 10+20+30+40 {
		t.Errorf("TotalVolume = %g", tot)
	}
	if exits := g.Exits(); len(exits) != 1 || exits[0] != 3 {
		t.Errorf("Exits = %v", exits)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if g.String() == "" {
		t.Error("empty String()")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewWithTasks("g", 2)
	if err := g.AddEdge(0, 0, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: %v", err)
	}
	if err := g.AddEdge(0, 5, 1); !errors.Is(err, ErrNoSuchTask) {
		t.Errorf("bad task: %v", err)
	}
	if err := g.AddEdge(0, 1, -1); !errors.Is(err, ErrNegVolume) {
		t.Errorf("neg volume: %v", err)
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(0, 1, 2); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate: %v", err)
	}
}

// TestNonFiniteVolumeRefused pins that AddEdge and the decoder's rebuild
// refuse NaN and ±Inf volumes with ErrNegVolume, as they refuse negative
// ones, and leave the graph without the edge.
func TestNonFiniteVolumeRefused(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		g := NewWithTasks("g", 2)
		if err := g.AddEdge(0, 1, v); !errors.Is(err, ErrNegVolume) {
			t.Errorf("AddEdge volume %g: %v", v, err)
		}
		if g.NumEdges() != 0 {
			t.Errorf("AddEdge volume %g: %d edges kept", v, g.NumEdges())
		}
		if err := g.rebuild("g", 2, []edgeJSON{{Src: 0, Dst: 1, Volume: v}}); !errors.Is(err, ErrNegVolume) {
			t.Errorf("rebuild volume %g: %v", v, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	c.MustAddEdge(1, 2, 5)
	if g.NumEdges() != 4 || len(g.Succs(1)) != 1 || len(g.Preds(2)) != 1 {
		t.Errorf("clone mutation leaked into original: %d edges, succs(1)=%v, preds(2)=%v", g.NumEdges(), g.Succs(1), g.Preds(2))
	}
	if c.NumTasks() != g.NumTasks() || c.NumEdges() != g.NumEdges()+1 {
		t.Error("clone shape mismatch")
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := buildDiamond(t)
	f, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	order, rev := f.TopologicalOrder(), f.ReverseTopologicalOrder()
	if !g.IsTopologicalOrder(order) {
		t.Errorf("order %v is not topological", order)
	}
	if rev[0] != order[len(order)-1] {
		t.Errorf("reverse order mismatch: %v vs %v", rev, order)
	}
	if g.IsTopologicalOrder([]TaskID{3, 2, 1, 0}) {
		t.Error("reversed order accepted as topological")
	}
	if g.IsTopologicalOrder([]TaskID{0, 1, 2}) {
		t.Error("short order accepted")
	}
	if g.IsTopologicalOrder([]TaskID{0, 0, 1, 2}) {
		t.Error("duplicate order accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewWithTasks("cyc", 3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("Validate on cycle: %v", err)
	}
	if _, _, err := g.Levels(); !errors.Is(err, ErrCycle) {
		t.Errorf("Levels on cycle: %v", err)
	}
	if _, err := g.Width(); !errors.Is(err, ErrCycle) {
		t.Errorf("Width on cycle: %v", err)
	}
}

func TestLevels(t *testing.T) {
	g := buildDiamond(t)
	levels, n, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("level count = %d, want 3", n)
	}
	want := []int{0, 1, 1, 2}
	for i, l := range levels {
		if l != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, l, want[i])
		}
	}
}

// unitBottomLevels freezes g and computes its bottom levels under unit node
// costs and volumes as edge costs.
func unitBottomLevels(t *testing.T, g *Graph) []float64 {
	t.Helper()
	f, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	node, edge := flatCosts(f, func(TaskID) float64 { return 1 }, func(_, _ TaskID, v float64) float64 { return v })
	return f.BottomLevels(node, edge, nil)
}

func TestBottomAndTopLevels(t *testing.T) {
	g := buildDiamond(t)
	bl := unitBottomLevels(t, g)
	// bl(3)=1; bl(1)=1+30+1=32; bl(2)=1+40+1=42; bl(0)=1+max(10+32,20+42)=63.
	if want := []float64{63, 32, 42, 1}; !slices.Equal(bl, want) {
		t.Errorf("bottom levels %v, want %v", bl, want)
	}
	// A top level is a bottom level of the reversed graph less the task's own
	// cost: tl(0)=0; tl(1)=0+1+10=11; tl(2)=21; tl(3)=max(11+1+30,21+1+40)=62.
	rev := NewWithTasks("reversed", g.NumTasks())
	for _, e := range g.Edges() {
		rev.MustAddEdge(e.Dst, e.Src, e.Volume)
	}
	tl := unitBottomLevels(t, rev)
	for i := range tl {
		tl[i]--
	}
	if want := []float64{0, 11, 21, 62}; !slices.Equal(tl, want) {
		t.Errorf("top levels %v, want %v", tl, want)
	}
}

// TestCriticalPath: the longest entry-to-exit path is the largest bottom
// level — the diamond's runs 0→2→3.
func TestCriticalPath(t *testing.T) {
	if cp := slices.Max(unitBottomLevels(t, buildDiamond(t))); cp != 63 {
		t.Errorf("critical length = %g, want 63", cp)
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	g := New("empty")
	if bl := unitBottomLevels(t, g); len(bl) != 0 {
		t.Errorf("empty graph: bottom levels %v", bl)
	}
	if _, n, err := g.Levels(); n != 0 || err != nil {
		t.Errorf("empty graph: %d levels, %v", n, err)
	}
}

func TestWidth(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
		want  int
	}{
		{"diamond", func() *Graph { return buildDiamond(t) }, 2},
		{"chain", func() *Graph {
			g := NewWithTasks("chain", 5)
			for i := 0; i < 4; i++ {
				g.MustAddEdge(TaskID(i), TaskID(i+1), 1)
			}
			return g
		}, 1},
		{"independent", func() *Graph { return NewWithTasks("ind", 7) }, 7},
		{"empty", func() *Graph { return New("e") }, 0},
		{"fork", func() *Graph {
			g := NewWithTasks("fork", 5)
			for i := 1; i < 5; i++ {
				g.MustAddEdge(0, TaskID(i), 1)
			}
			return g
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build().Width()
			if err != nil {
				t.Fatal(err)
			}
			if w != tc.want {
				t.Errorf("width = %d, want %d", w, tc.want)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != g.Name() || back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", back, g)
	}
	if !slices.Equal(back.Edges(), g.Edges()) {
		t.Errorf("round trip edges %v, want %v", back.Edges(), g.Edges())
	}
}

func TestJSONRejectsBadGraphs(t *testing.T) {
	cases := []string{
		`{"name":"x","tasks":-1,"edges":[]}`,
		`{"name":"x","tasks":2,"edges":[{"src":0,"dst":0,"volume":1}]}`,
		`{"name":"x","tasks":2,"edges":[{"src":0,"dst":5,"volume":1}]}`,
		`{"name":"x","tasks":2,"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":0,"volume":1}]}`,
		`not json`,
	}
	for i, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("case %d: bad graph accepted", i)
		}
	}
}

// TestReadBoundsDeclaredTasks: a task count is declared, not spelled out, so
// a graph file can name any number in a few bytes. Read refuses a count its
// document has no room for before allocating anything by it, with the rule
// (and the message) request bodies meet in ScanJSONMax.
func TestReadBoundsDeclaredTasks(t *testing.T) {
	huge := `{"name":"x","tasks":1000000000,"edges":[]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(huge))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "1000000000 tasks declared") {
		t.Fatalf("Read of a graph declaring 10⁹ tasks: %v, want the declared-count error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Read allocated %d bytes before refusing 10⁹ declared tasks", grew)
	}
	// Tasks without edges take no bytes: any document may declare minTaskBound
	// of them, and a longer one a task per byte.
	for doc, ok := range map[string]bool{
		fmt.Sprintf(`{"tasks":%d}`, minTaskBound):                                                true,
		fmt.Sprintf(`{"tasks":%d}`, minTaskBound+1):                                              false,
		fmt.Sprintf(`{"tasks":%d,"name":%q}`, minTaskBound+1, strings.Repeat("n", minTaskBound)): true,
	} {
		g, err := Read(strings.NewReader(doc))
		if (err == nil) != ok {
			t.Errorf("%.40s… (%d bytes): err = %v, want accepted = %v", doc, len(doc), err, ok)
		}
		if ok && err == nil && g.NumTasks() < minTaskBound {
			t.Errorf("%.40s…: decoded %d tasks", doc, g.NumTasks())
		}
	}
}

// TestJSONForgetsPreviousPayload: the decode scratch is recycled, and an edge
// that omits a field must read the field as zero, not as what an earlier
// graph left at the same index.
func TestJSONForgetsPreviousPayload(t *testing.T) {
	var warm, g Graph
	if err := json.Unmarshal([]byte(`{"name":"w","tasks":4,"edges":[{"src":2,"dst":3,"volume":7}]}`), &warm); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"name":"x","tasks":4,"edges":[{"dst":1}]}`), &g); err != nil {
		t.Fatal(err)
	}
	if ss := g.sortedSuccs(0); len(ss) != 1 || ss[0].To != 1 || ss[0].Volume != 0 || g.NumEdges() != 1 {
		t.Fatalf("edge {dst:1} decoded as %v (%d edges), want 0→1 volume 0", ss, g.NumEdges())
	}
}

func TestSortedSuccs(t *testing.T) {
	g := NewWithTasks("s", 4)
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	ss := g.sortedSuccs(0)
	for i := 1; i < len(ss); i++ {
		if ss[i-1].To >= ss[i].To {
			t.Fatalf("not sorted: %v", ss)
		}
	}
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
