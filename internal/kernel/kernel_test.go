package kernel

import (
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

// TestBoardArrivalsMatchesDirect builds a schedule task by task and requires
// Board.Arrivals to equal, bit for bit, the fold of sched.ArrivalWindow over
// every (predecessor, processor) pair it replaced: with one and with several
// replicas per predecessor, with duplicates appended to placed predecessors
// (FTBAR's Minimize-Start-Time), on a single processor, and with zero-volume
// edges. Entry tasks must read zero everywhere.
func TestBoardArrivalsMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name                string
		m, replicas         int
		duplicates, zeroVol bool
	}{
		{name: "one replica", m: 20, replicas: 1},
		{name: "three replicas", m: 20, replicas: 3},
		{name: "duplicated predecessors", m: 8, replicas: 2, duplicates: true},
		{name: "single processor", m: 1, replicas: 1},
		{name: "zero-volume edges", m: 5, replicas: 2, zeroVol: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := testInstance(t, 3, tc.m)
			g, p, cm := inst.Graph, inst.Platform, inst.Costs
			if tc.zeroVol {
				if err := g.ScaleVolumes(0); err != nil {
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
			order, err := g.TopologicalOrder()
			if err != nil {
				t.Fatal(err)
			}
			// replicaOn is where the board can run task on processor j, given
			// the arrivals it has just computed for task.
			replicaOn := func(task dag.TaskID, j int) sched.Replica {
				e := cm.Cost(task, platform.ProcID(j))
				sMin := b.StartMin(j, b.ArrMin[j], e)
				sMax := b.StartMax(j, b.ArrMax[j])
				return sched.Replica{
					Task: task, Proc: platform.ProcID(j),
					StartMin: sMin, FinishMin: sMin + e,
					StartMax: sMax, FinishMax: sMax + e,
				}
			}
			for n, task := range order {
				b.Arrivals(f, p, s, task)
				for j := 0; j < tc.m; j++ {
					wantMin, wantMax := 0.0, 0.0
					for _, pe := range g.Preds(task) {
						eMin, eMax := sched.ArrivalWindow(p, s.Replicas(pe.To), pe.Volume, platform.ProcID(j))
						wantMin = math.Max(wantMin, eMin)
						wantMax = math.Max(wantMax, eMax)
					}
					if b.ArrMin[j] != wantMin || b.ArrMax[j] != wantMax {
						t.Fatalf("task %d proc %d: board (%g,%g), direct (%g,%g)",
							task, j, b.ArrMin[j], b.ArrMax[j], wantMin, wantMax)
					}
					if len(g.Preds(task)) == 0 && (b.ArrMin[j] != 0 || b.ArrMax[j] != 0) {
						t.Fatalf("entry task %d proc %d: arrivals (%g,%g), want 0", task, j, b.ArrMin[j], b.ArrMax[j])
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
				b.Commit(reps)
				if tc.duplicates && n%2 == 0 {
					dup := replicaOn(task, (n+tc.replicas)%tc.m)
					if err := s.AddDuplicate(task, dup); err != nil {
						t.Fatal(err)
					}
					b.Commit([]sched.Replica{dup})
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
			if b.ReadyMin[j] != 0 || b.ReadyMax[j] != 0 || b.ArrMin[j] != 0 || b.ArrMax[j] != 0 {
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
	pl := NewPriorityList()
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

func TestSetStableRemove(t *testing.T) {
	var s Set
	for _, id := range []dag.TaskID{4, 7, 1, 9} {
		s.Add(id)
	}
	s.Remove(7)
	want := []dag.TaskID{4, 1, 9}
	got := s.Tasks()
	if len(got) != len(want) {
		t.Fatalf("tasks %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tasks %v, want %v", got, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Remove(42) // absent: no-op
	if s.Len() != 3 {
		t.Fatalf("len after absent remove = %d", s.Len())
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
