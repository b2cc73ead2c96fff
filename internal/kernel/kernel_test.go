package kernel

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func testInstance(t testing.TB, seed int64, m int) *workload.Instance {
	t.Helper()
	cfg := workload.DefaultPaperConfig(0)
	cfg.Procs = m
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 60
	inst, err := workload.NewInstance(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// literalArrivals is Board.Arrivals as it ran while it computed both halves of
// the window on every processor, kept verbatim as the reference: arrMin and
// arrMax stand where the board's ArrMin and ArrMax fields did, and the
// per-predecessor scratch is local.
func literalArrivals(arrMin, arrMax []float64, f *dag.Flat, p *platform.Platform, s *sched.Schedule, t dag.TaskID) {
	predMin, predMax := make([]float64, len(arrMin)), make([]float64, len(arrMin))
	clear(arrMin)
	clear(arrMax)
	vols := f.PredVolumes(t)
	for i, pt := range f.PredIDs(t) {
		v := vols[i]
		for j := range predMin {
			predMin[j], predMax[j] = math.Inf(1), 0
		}
		srcReps := s.Replicas(dag.TaskID(pt))
		for c := range srcReps {
			sr := &srcReps[c]
			row := p.DelayRow(sr.Proc)[:len(predMin)]
			for j, d := range row {
				if a := sr.FinishMin + v*d; a < predMin[j] {
					predMin[j] = a
				}
				if a := sr.FinishMax + v*d; a > predMax[j] {
					predMax[j] = a
				}
			}
		}
		for j, eMin := range predMin {
			if eMin > arrMin[j] {
				arrMin[j] = eMin
			}
			if eMax := predMax[j]; eMax > arrMax[j] {
				arrMax[j] = eMax
			}
		}
	}
}

// literalStart is Board.StartMin (append mode) and StartMax as they were
// written before the built-in max: the ready time when it is later than the
// arrival, the arrival otherwise.
func literalStart(ready, arr float64) float64 {
	if ready > arr {
		return ready
	}
	return arr
}

// literalCommit is Board.Commit's ready-time advance as it was written before
// the built-in max.
func literalCommit(readyMin, readyMax []float64, reps []sched.Replica) {
	for _, r := range reps {
		if r.FinishMin > readyMin[r.Proc] {
			readyMin[r.Proc] = r.FinishMin
		}
		if r.FinishMax > readyMax[r.Proc] {
			readyMax[r.Proc] = r.FinishMax
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns, so
// that +0 and -0, or two NaNs, are told apart where == would not.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBoardArrivalsMatchesDirect builds a schedule task by task and requires
// the board's ArrMin row and ArrivalMaxOn, for every (task, processor), to
// equal bit for bit both literalArrivals and the fold of sched.ArrivalWindow
// over the predecessors, and StartMin, StartMax and Commit to equal their
// compare-and-assign forms (literalStart, literalCommit) bit for bit: with
// one and with several replicas per predecessor, with duplicates appended to
// placed predecessors (FTBAR's Minimize-Start-Time), on a single processor,
// with zero-volume edges, with zero volumes, delays and costs at once (every
// fold meets +0 ties), and with equal delays and per-task equal costs (exact
// ties across processors). Before anything is placed every predecessor is
// without a sender and the row must read +Inf (HEFT can meet that row).
// Entry tasks must read zero everywhere, and ArrivalsInto must write the same
// row into storage of the caller's. The board folds with the built-in min and
// max; these cases are where those could differ from the comparisons they
// replaced if a -0 or a NaN ever reached them.
func TestBoardArrivalsMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name                string
		m, replicas         int
		duplicates, zeroVol bool
		zeroDelay, zeroCost bool
		ties                bool
	}{
		{name: "one replica", m: 20, replicas: 1},
		{name: "three replicas", m: 20, replicas: 3},
		{name: "duplicated predecessors", m: 8, replicas: 2, duplicates: true},
		{name: "single processor", m: 1, replicas: 1},
		{name: "zero-volume edges", m: 5, replicas: 2, zeroVol: true},
		{name: "zero volumes delays and costs", m: 5, replicas: 2, duplicates: true, zeroVol: true, zeroDelay: true, zeroCost: true},
		{name: "ties across processors", m: 6, replicas: 3, duplicates: true, ties: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := testInstance(t, 3, tc.m)
			g, p, cm := inst.Graph, inst.Platform, inst.Costs
			if tc.zeroVol || tc.ties {
				// Integral volumes under ties, so that sums of volume·delay
				// and costs collide exactly.
				flat := dag.NewWithTasks(g.Name(), g.NumTasks())
				for _, e := range g.Edges() {
					v := 0.0
					if !tc.zeroVol {
						v = float64(1 + int(e.Volume)%4)
					}
					flat.MustAddEdge(e.Src, e.Dst, v)
				}
				g = flat
			}
			if tc.zeroDelay || tc.ties {
				d := 0.0
				if tc.ties {
					d = 1
				}
				delay := make([][]float64, tc.m)
				for k := range delay {
					delay[k] = make([]float64, tc.m)
					for h := range delay[k] {
						if h != k {
							delay[k][h] = d
						}
					}
				}
				var err error
				if p, err = platform.NewFromDelays(delay); err != nil {
					t.Fatal(err)
				}
			}
			if tc.zeroCost || tc.ties {
				cost := make([][]float64, g.NumTasks())
				for task := range cost {
					cost[task] = make([]float64, tc.m)
					if tc.ties {
						for j := range cost[task] {
							cost[task][j] = float64(1 + task%3)
						}
					}
				}
				var err error
				if cm, err = platform.NewCostModelFromMatrix(cost); err != nil {
					t.Fatal(err)
				}
			}
			s, err := sched.New(g, p, cm, tc.replicas-1, sched.PatternAll, "test")
			if err != nil {
				t.Fatal(err)
			}
			b := NewBoard(tc.m, false)
			defer b.Release()
			f, err := g.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			order := f.TopologicalOrder()
			refMin, refMax, into := make([]float64, tc.m), make([]float64, tc.m), make([]float64, tc.m)
			readyMin, readyMax := make([]float64, tc.m), make([]float64, tc.m)
			// replicaOn is where the board can run task on processor j, given
			// the arrivals it has just computed for task; its starts must be
			// literalStart's.
			replicaOn := func(task dag.TaskID, j int) sched.Replica {
				e := cm.Cost(task, platform.ProcID(j))
				arrMax := b.ArrivalMaxOn(f, p, s, task, platform.ProcID(j))
				sMin := b.StartMin(j, b.ArrMin[j], e)
				sMax := b.StartMax(j, arrMax)
				if want := literalStart(readyMin[j], b.ArrMin[j]); math.Float64bits(sMin) != math.Float64bits(want) {
					t.Fatalf("task %d proc %d: StartMin %g, literal %g", task, j, sMin, want)
				}
				if want := literalStart(readyMax[j], arrMax); math.Float64bits(sMax) != math.Float64bits(want) {
					t.Fatalf("task %d proc %d: StartMax %g, literal %g", task, j, sMax, want)
				}
				return sched.Replica{
					Task: task, Proc: platform.ProcID(j),
					StartMin: sMin, FinishMin: sMin + e,
					StartMax: sMax, FinishMax: sMax + e,
				}
			}
			commit := func(reps []sched.Replica) {
				b.Commit(reps)
				literalCommit(readyMin, readyMax, reps)
				if !sameBits(b.ReadyMin, readyMin) || !sameBits(b.ReadyMax, readyMax) {
					t.Fatalf("Commit: board ready (%v, %v), literal (%v, %v)", b.ReadyMin, b.ReadyMax, readyMin, readyMax)
				}
			}
			// With nothing placed yet no predecessor has a sender: the minimum
			// over no replicas, +Inf, which HEFT can meet (see ArrivalsInto).
			for _, task := range order {
				b.Arrivals(f, p, s, task)
				literalArrivals(refMin, refMax, f, p, s, task)
				if !sameBits(b.ArrMin, refMin) {
					t.Fatalf("task %d before any placement: board %v, literal %v", task, b.ArrMin, refMin)
				}
				if f.InDegree(task) > 0 && !math.IsInf(b.ArrMin[0], 1) {
					t.Fatalf("task %d before any placement: arrival %g, want +Inf", task, b.ArrMin[0])
				}
				for j := 0; j < tc.m; j++ {
					if got := b.ArrivalMaxOn(f, p, s, task, platform.ProcID(j)); math.Float64bits(got) != math.Float64bits(refMax[j]) {
						t.Fatalf("task %d proc %d before any placement: ArrivalMaxOn %g, literal %g", task, j, got, refMax[j])
					}
				}
			}
			for n, task := range order {
				b.Arrivals(f, p, s, task)
				literalArrivals(refMin, refMax, f, p, s, task)
				b.ArrivalsInto(into, f, p, s, task)
				if !sameBits(into, b.ArrMin) {
					t.Fatalf("task %d: ArrivalsInto wrote %v, Arrivals %v", task, into, b.ArrMin)
				}
				for j := 0; j < tc.m; j++ {
					gotMin, gotMax := b.ArrMin[j], b.ArrivalMaxOn(f, p, s, task, platform.ProcID(j))
					if !sameBits([]float64{gotMin, gotMax}, []float64{refMin[j], refMax[j]}) {
						t.Fatalf("task %d proc %d: board (%g,%g), literal (%g,%g)",
							task, j, gotMin, gotMax, refMin[j], refMax[j])
					}
					wantMin, wantMax := 0.0, 0.0
					for _, pe := range g.Preds(task) {
						eMin, eMax := sched.ArrivalWindow(p, s.Replicas(pe.To), pe.Volume, platform.ProcID(j))
						wantMin = math.Max(wantMin, eMin)
						wantMax = math.Max(wantMax, eMax)
					}
					if !sameBits([]float64{gotMin, gotMax}, []float64{wantMin, wantMax}) {
						t.Fatalf("task %d proc %d: board (%g,%g), direct (%g,%g)",
							task, j, gotMin, gotMax, wantMin, wantMax)
					}
					if len(g.Preds(task)) == 0 && (gotMin != 0 || gotMax != 0) {
						t.Fatalf("entry task %d proc %d: arrivals (%g,%g), want 0", task, j, gotMin, gotMax)
					}
				}
				// Replicas on consecutive processors, rotating with the task.
				reps := make([]sched.Replica, tc.replicas)
				for c := range reps {
					reps[c] = replicaOn(task, (n+c)%tc.m)
					reps[c].Copy = c
				}
				if err := s.Place(task, reps); err != nil {
					t.Fatal(err)
				}
				commit(reps)
				if tc.duplicates && n%2 == 0 {
					dup := replicaOn(task, (n+tc.replicas)%tc.m)
					if err := s.AddDuplicate(task, dup); err != nil {
						t.Fatal(err)
					}
					commit([]sched.Replica{dup})
				}
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("board schedule invalid: %v", err)
			}
		})
	}
}

// TestKeepSmallestMatchesSort offers every processor to KeepSmallest and
// requires what sorting all of them by (value, processor) and truncating to
// k leaves — with values drawn from a handful of levels so that ties are the
// rule, for every k up to and including m.
func TestKeepSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		m := 1 + rng.Intn(20)
		all := make([]Choice, m)
		for j := range all {
			all[j] = Choice{Proc: platform.ProcID(j), Value: float64(rng.Intn(4))}
		}
		want := slices.Clone(all)
		sort.Slice(want, func(a, b int) bool {
			if want[a].Value != want[b].Value {
				return want[a].Value < want[b].Value
			}
			return want[a].Proc < want[b].Proc
		})
		for k := 1; k <= m; k++ {
			if round%2 == 1 { // the schedulers offer in processor order; any order must do
				rng.Shuffle(m, func(a, b int) { all[a], all[b] = all[b], all[a] })
			}
			var top []Choice
			for _, c := range all {
				top = KeepSmallest(top, k, c)
			}
			if !slices.Equal(top, want[:k]) {
				t.Fatalf("m=%d k=%d offered %v:\n got  %v\n want %v", m, k, all, top, want[:k])
			}
		}
	}
}

// TestBoardCommitMonotonic verifies that committing a gap-inserted replica
// finishing before the current ready time never rewinds the board.
func TestBoardCommitMonotonic(t *testing.T) {
	b := NewBoard(2, true)
	defer b.Release()
	b.Commit([]sched.Replica{{Proc: 0, StartMin: 10, FinishMin: 20, StartMax: 15, FinishMax: 25}})
	if b.ReadyMin[0] != 20 || b.ReadyMax[0] != 25 {
		t.Fatalf("ready after first commit: (%g,%g)", b.ReadyMin[0], b.ReadyMax[0])
	}
	// A replica inserted into the gap [0,10) finishes before 20.
	b.Commit([]sched.Replica{{Proc: 0, StartMin: 0, FinishMin: 5, StartMax: 30, FinishMax: 35}})
	if b.ReadyMin[0] != 20 {
		t.Fatalf("ReadyMin rewound to %g", b.ReadyMin[0])
	}
	if b.ReadyMax[0] != 35 {
		t.Fatalf("ReadyMax = %g, want 35", b.ReadyMax[0])
	}
	if b.Lines[0].Len() != 2 {
		t.Fatalf("timeline has %d slots, want 2", b.Lines[0].Len())
	}
	// The gap [5,10) is still findable.
	if got := b.Lines[0].EarliestFit(0, 5); got != 5 {
		t.Fatalf("EarliestFit after commits = %g, want 5", got)
	}
}

// TestBoardPoolReuse verifies that a released board comes back zeroed, with
// timelines reset, regardless of its previous run's mode.
func TestBoardPoolReuse(t *testing.T) {
	for i := 0; i < 50; i++ {
		ins := i%2 == 0
		b := NewBoard(4, ins)
		for j := 0; j < 4; j++ {
			if b.ReadyMin[j] != 0 || b.ReadyMax[j] != 0 || b.ArrMin[j] != 0 {
				t.Fatalf("iteration %d: board not zeroed", i)
			}
		}
		// Timeline storage is retained across modes but always comes back
		// reset; dirty it so the next iteration exercises the reset.
		for j := range b.Lines {
			if b.Lines[j].Len() != 0 {
				t.Fatalf("iteration %d: timeline %d not reset", i, j)
			}
			if ins {
				b.Lines[j].Add(float64(j), float64(j)+1)
			}
		}
		b.Commit([]sched.Replica{{Proc: 1, StartMin: 1, FinishMin: 2, StartMax: 3, FinishMax: 4}})
		b.Release()
	}
}

func TestPriorityListOrder(t *testing.T) {
	var pl PriorityList
	pl.Push(Item{ID: 1, Priority: 5})
	pl.Push(Item{ID: 2, Priority: 9})
	pl.Push(Item{ID: 3, Priority: 9, Tie: 1})
	pl.Push(Item{ID: 4, Priority: 1})
	if pl.Len() != 4 {
		t.Fatalf("len = %d", pl.Len())
	}
	var got []int
	for pl.Len() > 0 {
		it, ok := pl.Pop()
		if !ok {
			t.Fatal("pop failed with items left")
		}
		got = append(got, it.ID)
	}
	// Highest priority first; equal priorities broken by higher tie, then ID.
	want := []int{3, 2, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if _, ok := pl.Pop(); ok {
		t.Fatal("pop on empty list succeeded")
	}
}

// TestPriorityListPopsDescending is "heap == tree" as a property: under
// random interleavings of Push and Pop — priorities drawn from a few levels
// so that they repeat, ties zero as often as not — every Pop returns the
// maximum of the live set by (Priority, Tie, ID), which is what the paper's
// AVL list returns, and draining the list walks the live set in exactly
// descending order.
func TestPriorityListPopsDescending(t *testing.T) {
	descending := func(a, b Item) int {
		if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Tie, a.Tie); c != 0 {
			return c
		}
		return cmp.Compare(b.ID, a.ID)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		var pl PriorityList
		var live []Item
		pop := func() {
			slices.SortFunc(live, descending)
			got, ok := pl.Pop()
			if !ok || got != live[0] {
				t.Fatalf("round %d: popped %+v (ok=%v), want %+v of %v", round, got, ok, live[0], live)
			}
			live = live[1:]
		}
		nextID := 0
		for op := 0; op < 120; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			it := Item{ID: nextID, Priority: float64(rng.Intn(4))}
			if rng.Intn(2) == 0 {
				it.Tie = uint64(rng.Intn(3))
			}
			nextID++
			pl.Push(it)
			live = append(live, it)
			if pl.Len() != len(live) {
				t.Fatalf("round %d: len %d, want %d", round, pl.Len(), len(live))
			}
		}
		for len(live) > 0 {
			pop()
		}
		if _, ok := pl.Pop(); ok || pl.Len() != 0 {
			t.Fatalf("round %d: drained list still pops", round)
		}
	}
}

// TestPriorityListReset checks that Reset leaves an empty list that keeps
// its storage and orders the next run's items alone.
func TestPriorityListReset(t *testing.T) {
	var pl PriorityList
	for id := 0; id < 8; id++ {
		pl.Push(Item{ID: id, Priority: float64(id)})
	}
	pl.Reset()
	if _, ok := pl.Pop(); ok || pl.Len() != 0 {
		t.Fatal("reset list is not empty")
	}
	pl.Push(Item{ID: 1, Priority: 1})
	if allocs := testing.AllocsPerRun(10, func() { pl.Push(Item{ID: 2, Priority: 2}); pl.Pop() }); allocs != 0 {
		t.Fatalf("push/pop on a reset list allocates %v times", allocs)
	}
	if it, _ := pl.Pop(); it.ID != 1 {
		t.Fatalf("popped %+v, want the one item pushed after Reset", it)
	}
}

// TestSetStableRemove pins the order of the survivors after removing the
// head, a middle task and the tail, and that removing an absent task or the
// last one standing is harmless.
func TestSetStableRemove(t *testing.T) {
	var s Set
	for _, id := range []dag.TaskID{4, 7, 1, 9, 3} {
		s.Add(id)
	}
	for _, step := range []struct {
		remove dag.TaskID
		want   []dag.TaskID
	}{
		{7, []dag.TaskID{4, 1, 9, 3}}, // middle
		{4, []dag.TaskID{1, 9, 3}},    // head
		{3, []dag.TaskID{1, 9}},       // tail
		{42, []dag.TaskID{1, 9}},      // absent: no-op
		{1, []dag.TaskID{9}},
		{9, []dag.TaskID{}},
	} {
		s.Remove(step.remove)
		if !slices.Equal(s.Tasks(), step.want) || s.Len() != len(step.want) {
			t.Fatalf("after removing %d: tasks %v (len %d), want %v", step.remove, s.Tasks(), s.Len(), step.want)
		}
	}
	s.Add(5)
	if !slices.Equal(s.Tasks(), []dag.TaskID{5}) {
		t.Fatalf("add after emptying: tasks %v", s.Tasks())
	}
}

func TestGrowZero(t *testing.T) {
	buf := []float64{1, 2, 3, 4}
	got := GrowZero(buf[:2], 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("got[%d] = %g, want 0", i, v)
		}
	}
	if &got[0] != &buf[0] {
		t.Fatal("GrowZero reallocated despite sufficient capacity")
	}
	grown := GrowZero(buf, 10)
	if len(grown) != 10 {
		t.Fatalf("grown len = %d", len(grown))
	}
}
