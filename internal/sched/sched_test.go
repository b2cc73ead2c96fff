package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

func fixture(t *testing.T) (*dag.Graph, *platform.Platform, *platform.CostModel) {
	t.Helper()
	g := dag.NewWithTasks("pair", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{4, 4, 4}, {6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return g, p, cm
}

func TestNewSchedule(t *testing.T) {
	g, p, cm := fixture(t)
	if _, err := New(g, p, cm, -1, PatternAll, "x"); !errors.Is(err, ErrEpsilon) {
		t.Errorf("negative ε: %v", err)
	}
	if _, err := New(g, p, cm, 3, PatternAll, "x"); !errors.Is(err, ErrEpsilon) {
		t.Errorf("ε=m: %v", err)
	}
	// The cost model has one row per task: a matrix with rows to spare is
	// refused like one that is short of a row.
	for _, rows := range [][][]float64{{{4, 4, 4}}, {{4, 4, 4}, {6, 6, 6}, {5, 5, 5}}} {
		other, err := platform.NewCostModelFromMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(g, p, other, 1, PatternAll, "x"); err == nil || !strings.Contains(err.Error(), "does not match graph (2 tasks)") {
			t.Errorf("%d-row cost model: %v", len(rows), err)
		}
	}
	s, err := New(g, p, cm, 1, PatternAll, "FTSA")
	if err != nil {
		t.Fatal(err)
	}
	if s.Complete() {
		t.Error("empty schedule reported complete")
	}
	if lb := s.LowerBound(); !math.IsInf(lb, 1) {
		t.Errorf("incomplete LowerBound = %g, want +Inf", lb)
	}
}

// placePair builds a valid hand-crafted ε=1 schedule of the fixture.
func placePair(t *testing.T, s *Schedule) {
	t.Helper()
	if err := s.Place(0, []Replica{
		{Task: 0, Copy: 0, Proc: 0, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
		{Task: 0, Copy: 1, Proc: 1, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// Task 1 on P0 and P1: optimistic start 4 (local copy), pessimistic
	// start 14 (remote copy: 4 + 10·1).
	if err := s.Place(1, []Replica{
		{Task: 1, Copy: 0, Proc: 0, StartMin: 4, FinishMin: 10, StartMax: 14, FinishMax: 20},
		{Task: 1, Copy: 1, Proc: 1, StartMin: 4, FinishMin: 10, StartMax: 14, FinishMax: 20},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidateAccepts(t *testing.T) {
	g, p, cm := fixture(t)
	s, err := New(g, p, cm, 1, PatternAll, "hand")
	if err != nil {
		t.Fatal(err)
	}
	placePair(t, s)
	if !s.Complete() {
		t.Error("complete schedule reported incomplete")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if lb := s.LowerBound(); lb != 10 {
		t.Errorf("LowerBound = %g", lb)
	}
	if ub := s.UpperBound(); ub != 20 {
		t.Errorf("UpperBound = %g", ub)
	}
	if mc := s.MessageCount(); mc != 2 {
		// P0->P1 and P1->P0 are the only inter-processor messages.
		t.Errorf("MessageCount = %d, want 2", mc)
	}
	order, lo := s.ProcOrder()
	if len(lo) != 4 || lo[1]-lo[0] != 2 || lo[2]-lo[1] != 2 || lo[3]-lo[2] != 0 {
		t.Errorf("buckets %v of %v", lo, order)
	}
	if order[0].Task != 0 || order[1].Task != 1 {
		t.Errorf("P0 order wrong: %v", order[lo[0]:lo[1]])
	}
}

// TestProcOrderZeroCostChain maps the chain 2→1→0 in that order, with zero
// costs and volumes, so all three replicas start together on P0: the one
// processor order must run them as mapped, not by task id.
func TestProcOrderZeroCostChain(t *testing.T) {
	g := dag.NewWithTasks("chain", 3)
	g.MustAddEdge(2, 1, 0)
	g.MustAddEdge(1, 0, 0)
	p, err := uniformPlatform(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{0}, {0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, p, cm, 0, PatternAll, "x")
	if err != nil {
		t.Fatal(err)
	}
	// Starting at 1 rather than 0 gives the Gantt chart a horizon.
	for _, task := range []dag.TaskID{2, 1, 0} {
		if err := s.Place(task, []Replica{{Task: task, StartMin: 1, FinishMin: 1, StartMax: 1, FinishMax: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var got []dag.TaskID
	order, lo := s.ProcOrder()
	for _, r := range order[lo[0]:lo[1]] {
		got = append(got, r.Task)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("ProcOrder's P0 bucket runs tasks %v, want [2 1 0]", got)
	}
	// The three spans have no width and share the last column, so the row
	// shows the one drawn last: task 0, which P0 runs last.
	var b strings.Builder
	if err := s.WriteGantt(&b, GanttOptions{Width: 4}); err != nil {
		t.Fatal(err)
	}
	if row := strings.Split(b.String(), "\n")[1]; row != "P0   |   0|" {
		t.Fatalf("P0 row %q, want %q", row, "P0   |   0|")
	}
}

func TestPlaceErrors(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "x")
	if err := s.Place(5, nil); err == nil {
		t.Error("unknown task accepted")
	}
	if err := s.Place(0, nil); !errors.Is(err, ErrIncomplete) {
		t.Errorf("empty replicas: %v", err)
	}
	if err := s.Place(0, []Replica{{Task: 1, Copy: 0, Proc: 0}}); err == nil {
		t.Error("mislabeled replica accepted")
	}
	if err := s.Place(0, []Replica{{Task: 0, Copy: 0, Proc: 9}}); err == nil {
		t.Error("invalid processor accepted")
	}
	if err := s.Place(0, []Replica{{Task: 0, Copy: 0, Proc: 0, FinishMin: 4, FinishMax: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(0, []Replica{{Task: 0, Copy: 0, Proc: 1, FinishMin: 4, FinishMax: 4}}); err == nil {
		t.Error("double placement accepted")
	}
}

func TestValidateCatchesSharedProcessor(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "bad")
	// Both copies of task 0 on P0 — violates Proposition 4.1. Offset the
	// second copy to keep the timeline overlap check out of the way.
	if err := s.Place(0, []Replica{
		{Task: 0, Copy: 0, Proc: 0, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
		{Task: 0, Copy: 1, Proc: 0, StartMin: 4, FinishMin: 8, StartMax: 4, FinishMax: 8},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(1, []Replica{
		{Task: 1, Copy: 0, Proc: 1, StartMin: 14, FinishMin: 20, StartMax: 18, FinishMax: 24},
		{Task: 1, Copy: 1, Proc: 2, StartMin: 14, FinishMin: 20, StartMax: 18, FinishMax: 24},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); !errors.Is(err, ErrSpace) {
		t.Errorf("want ErrSpace, got %v", err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "bad")
	if err := s.Place(0, []Replica{
		{Task: 0, Copy: 0, Proc: 0, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
		{Task: 0, Copy: 1, Proc: 1, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// Task 1 overlaps task 0 on P0 in the Min window.
	if err := s.Place(1, []Replica{
		{Task: 1, Copy: 0, Proc: 0, StartMin: 2, FinishMin: 8, StartMax: 14, FinishMax: 20},
		{Task: 1, Copy: 1, Proc: 1, StartMin: 4, FinishMin: 10, StartMax: 14, FinishMax: 20},
	}); err != nil {
		t.Fatal(err)
	}
	err := s.Validate()
	if !errors.Is(err, ErrOverlap) && !errors.Is(err, ErrPrecedence) {
		t.Errorf("want overlap/precedence error, got %v", err)
	}
}

func TestValidateCatchesPrecedenceViolation(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 0, PatternAll, "bad")
	if err := s.Place(0, []Replica{
		{Task: 0, Copy: 0, Proc: 0, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// Task 1 on P1 starting at 5 < arrival 4 + 10 = 14.
	if err := s.Place(1, []Replica{
		{Task: 1, Copy: 0, Proc: 1, StartMin: 5, FinishMin: 11, StartMax: 5, FinishMax: 11},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); !errors.Is(err, ErrPrecedence) {
		t.Errorf("want ErrPrecedence, got %v", err)
	}
}

func TestValidateMatchedPattern(t *testing.T) {
	g, p, cm := fixture(t)
	s, err := New(g, p, cm, 1, PatternMatched, "mc")
	if err != nil {
		t.Fatal(err)
	}
	placePair(t, s)
	// Internal matching: copy 0 of task 1 (P0) receives from copy 0 of
	// task 0 (P0); copy 1 (P1) from copy 1 (P1). Pessimistic starts may be
	// recomputed accordingly, but placePair's looser windows stay valid.
	if err := s.SetMatchedSources(1, [][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMatchedSources(0, [][]int{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if mc := s.MessageCount(); mc != 0 {
		t.Errorf("MessageCount = %d, want 0 (both transfers internal)", mc)
	}
	k, err := s.MatchedSource(1, 0, 0)
	if err != nil || k != 0 {
		t.Errorf("MatchedSource = %d, %v", k, err)
	}
}

func TestValidateMatchedRejectsCrossedInternal(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternMatched, "mc")
	placePair(t, s)
	// Crossed matching P0->P1 / P1->P0 violates Proposition 4.3: the
	// co-located source must self-match.
	if err := s.SetMatchedSources(1, [][]int{{1}, {0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMatchedSources(0, [][]int{{}, {}}); err != nil {
		t.Fatal(err)
	}
	err := s.Validate()
	if !errors.Is(err, ErrMatching) && !errors.Is(err, ErrPrecedence) {
		t.Errorf("want matching/precedence error, got %v", err)
	}
}

func TestAddDuplicate(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 0, PatternAll, "dup")
	if err := s.AddDuplicate(0, Replica{Task: 0, Proc: 1}); !errors.Is(err, ErrNotScheduled) {
		t.Errorf("duplicate before placement: %v", err)
	}
	if err := s.Place(0, []Replica{{Task: 0, Copy: 0, Proc: 0, FinishMin: 4, FinishMax: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDuplicate(0, Replica{Task: 0, Proc: 1, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4}); err != nil {
		t.Fatal(err)
	}
	reps := s.Replicas(0)
	if len(reps) != 2 || reps[1].Copy != 1 {
		t.Errorf("replicas after duplicate: %+v", reps)
	}
	if err := s.AddDuplicate(0, Replica{Task: 1, Proc: 1}); err == nil {
		t.Error("mislabeled duplicate accepted")
	}
}

func TestDeadlines(t *testing.T) {
	// Chain 0 -> 1 -> 2 with volume 10, uniform delays 1, costs 5 on both
	// of 2 processors, ε=1: d(2)=L; d(1)=L−5−10; d(0)=L−2·15.
	g := dag.NewWithTasks("chain3", 3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 10)
	p, err := uniformPlatform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{5, 5}, {5, 5}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deadlines(g, cm, p, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{70, 85, 100}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-9 {
			t.Errorf("d(%d) = %g, want %g", i, d[i], want[i])
		}
	}
	// Deadlines must be non-decreasing along every edge.
	for _, e := range g.Edges() {
		if d[e.Src] > d[e.Dst] {
			t.Errorf("deadline inversion on edge %v", e)
		}
	}
}

func TestArrivalWindow(t *testing.T) {
	p, err := uniformPlatform(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	reps := []Replica{
		{Task: 0, Copy: 0, Proc: 0, FinishMin: 10, FinishMax: 12},
		{Task: 0, Copy: 1, Proc: 1, FinishMin: 11, FinishMax: 15},
	}
	// On P0: local copy arrives at 10 (min) / remote pessimistic 15+10·2=35.
	early, late := ArrivalWindow(p, reps, 5, 0)
	if early != 10 {
		t.Errorf("earliest = %g, want 10", early)
	}
	if late != 25 {
		// max(12 + 0, 15 + 5*2) = 25.
		t.Errorf("latest = %g, want 25", late)
	}
	// On P2 both are remote: earliest = min(10,11)+5·2 = 20.
	early, _ = ArrivalWindow(p, reps, 5, 2)
	if early != 20 {
		t.Errorf("earliest on P2 = %g, want 20", early)
	}
}

func TestAvgBottomLevels(t *testing.T) {
	g, p, cm := fixture(t)
	bl, err := AvgBottomLevels(g, cm, p)
	if err != nil {
		t.Fatal(err)
	}
	// Mean delay is 1 (uniform), mean costs 4 and 6: bl(1)=6; bl(0)=4+10+6=20.
	if bl[1] != 6 || bl[0] != 20 {
		t.Errorf("bl = %v", bl)
	}
}

func TestPatternString(t *testing.T) {
	if PatternAll.String() != "all" || PatternMatched.String() != "matched" {
		t.Error("pattern names wrong")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern empty")
	}
}

func TestMappingOrderIsCopied(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "x")
	placePair(t, s)
	mo := s.MappingOrder()
	mo[0] = 99
	if s.MappingOrder()[0] == 99 {
		t.Error("MappingOrder leaked internal slice")
	}
}

// uniformPlatform is m processors with unit delay d between every two of
// them.
func uniformPlatform(m int, d float64) (*platform.Platform, error) {
	delay := make([][]float64, m)
	for k := range delay {
		delay[k] = make([]float64, m)
		for h := range delay[k] {
			if h != k {
				delay[k][h] = d
			}
		}
	}
	return platform.NewFromDelays(delay)
}

// TestValidateErrorsOnPooledOrder: Validate orders each processor's
// replicas in a pooled buffer, so an error must name the replicas of its
// own schedule however the buffer is reused after it, and an order built
// into a dirty, longer buffer must equal a fresh ProcOrder.
func TestValidateErrorsOnPooledOrder(t *testing.T) {
	g := dag.NewWithTasks("two", 2)
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{4, 4, 4}, {6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	// overlapping places both independent tasks on proc, task 1 from start1.
	overlapping := func(proc platform.ProcID, start1 float64) *Schedule {
		s, _ := New(g, p, cm, 0, PatternAll, "bad")
		for _, r := range []Replica{
			{Task: 0, Proc: proc, StartMin: 0, FinishMin: 4, StartMax: 0, FinishMax: 4},
			{Task: 1, Proc: proc, StartMin: start1, FinishMin: start1 + 6, StartMax: start1, FinishMax: start1 + 6},
		} {
			if err := s.Place(r.Task, []Replica{r}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	first := overlapping(0, 2).Validate()
	const want = "P0 Min window: task 0 copy 0 [0,4) overlaps task 1 copy 0 [2,8)"
	if !errors.Is(first, ErrOverlap) || !strings.HasSuffix(first.Error(), want) {
		t.Fatalf("first schedule: %v, want %q", first, want)
	}
	second := overlapping(2, 3).Validate()
	if want := "P2 Min window: task 0 copy 0 [0,4) overlaps task 1 copy 0 [3,9)"; !strings.HasSuffix(fmt.Sprint(second), want) {
		t.Fatalf("second schedule: %v, want %q", second, want)
	}
	if err := overlapping(1, 4).Validate(); err != nil {
		t.Fatalf("a touching pair on P1: %v", err)
	}
	if !strings.HasSuffix(first.Error(), want) {
		t.Fatalf("the first error changed as the buffer was reused: %v", first)
	}
	s := overlapping(1, 5)
	wantOrder, wantLo := s.ProcOrder()
	dirty := make([]Replica, 9)
	for i := range dirty {
		dirty[i] = Replica{Task: 7, Copy: 7, Proc: 2, StartMin: 99}
	}
	order, lo := s.procOrderInto(dirty, []int{5, 5, 5, 5, 5, 5})
	if !slices.Equal(order, wantOrder) || !slices.Equal(lo, wantLo) {
		t.Fatalf("order into a dirty buffer %v %v, fresh %v %v", order, lo, wantOrder, wantLo)
	}
}
