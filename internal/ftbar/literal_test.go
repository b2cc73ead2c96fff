package ftbar

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// scheduleLiteral is schedule driven by literalStep: the reference the
// memoised step must reproduce bit for bit.
func scheduleLiteral(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	st, err := newState(g, p, cm, opt)
	if err != nil {
		return nil, err
	}
	defer st.release()
	for st.free.Len() > 0 {
		if err := st.literalStep(); err != nil {
			return nil, err
		}
	}
	if !st.s.Complete() {
		return nil, dag.ErrCycle
	}
	return st.s, nil
}

// procChoice is one candidate (processor, pressure) pair for a task.
type procChoice struct {
	proc     platform.ProcID
	pressure float64
}

// literalStep is the FTBAR iteration as the paper states it and as this
// package ran it before arrivals were memoised, kept verbatim: it recomputes
// the arrival window of every free task on every step and sorts all m
// processors to keep Npf+1 of them.
func (st *state) literalStep() error {
	type taskEval struct {
		task    dag.TaskID
		chosen  []procChoice // Npf+1 minimum-pressure processors
		urgency float64      // max pressure within chosen
	}
	k := st.opt.Epsilon + 1
	m := st.p.NumProcs()
	evals := make([]taskEval, 0, st.free.Len())
	for _, t := range st.free.Tasks() {
		st.board.Arrivals(st.f, st.p, st.s, t)
		choices := make([]procChoice, 0, m)
		for j := 0; j < m; j++ {
			pj := platform.ProcID(j)
			est := st.board.StartMin(j, st.board.ArrMin[j], 0)
			choices = append(choices, procChoice{proc: pj, pressure: est + st.bl[t] - st.makespan})
		}
		sort.Slice(choices, func(a, b int) bool {
			if choices[a].pressure != choices[b].pressure {
				return choices[a].pressure < choices[b].pressure
			}
			return choices[a].proc < choices[b].proc
		})
		chosen := choices[:k]
		urg := chosen[0].pressure
		for _, c := range chosen[1:] {
			if c.pressure > urg {
				urg = c.pressure
			}
		}
		evals = append(evals, taskEval{task: t, chosen: append([]procChoice(nil), chosen...), urgency: urg})
	}
	// Most urgent pair: maximum pressure among the per-task best sets.
	best := 0
	for i := 1; i < len(evals); i++ {
		switch {
		case evals[i].urgency > evals[best].urgency:
			best = i
		case evals[i].urgency == evals[best].urgency && st.opt.Rng != nil && st.opt.Rng.Intn(2) == 0:
			best = i
		}
	}
	sel := evals[best]
	t := sel.task

	if st.opt.Policy != "noduplication" {
		for _, c := range sel.chosen {
			st.minimizeStartTime(t, c.proc)
		}
	}

	// Recompute arrivals after any duplication and place the replicas.
	st.board.Arrivals(st.f, st.p, st.s, t)
	reps := make([]sched.Replica, 0, k)
	for i, c := range sel.chosen {
		pj := c.proc
		e := st.cm.Cost(t, pj)
		sMin := st.board.StartMin(int(pj), st.board.ArrMin[pj], e)
		sMax := st.board.StartMax(int(pj), st.literalArrMax(t, pj))
		reps = append(reps, sched.Replica{
			Task: t, Copy: i, Proc: pj,
			StartMin: sMin, FinishMin: sMin + e,
			StartMax: sMax, FinishMax: sMax + e,
		})
	}
	if err := st.s.Place(t, reps); err != nil {
		return err
	}
	st.board.Commit(reps)
	for _, r := range reps {
		if r.FinishMin > st.makespan {
			st.makespan = r.FinishMin
		}
	}
	// Release successors and remove t from the free list.
	st.free.Remove(t)
	for _, sRaw := range st.f.SuccIDs(t) {
		se := dag.TaskID(sRaw)
		st.unsched[se]--
		if st.unsched[se] == 0 {
			st.free.Add(se)
		}
	}
	return nil
}

// literalArrMax is what Board.ArrMax[pj] held after Board.Arrivals while the
// board computed both halves of the window: equation (3) on pj, the fold of
// sched.ArrivalWindow's latest arrival over the predecessors of t (the
// definition kernel's literalArrivals reference is pinned to).
func (st *state) literalArrMax(t dag.TaskID, pj platform.ProcID) float64 {
	arrMax := 0.0
	vols := st.f.PredVolumes(t)
	for i, pred := range st.f.PredIDs(t) {
		if _, eMax := sched.ArrivalWindow(st.p, st.s.Replicas(dag.TaskID(pred)), vols[i], pj); eMax > arrMax {
			arrMax = eMax
		}
	}
	return arrMax
}

// requireSameSchedule fails unless got and want hold the same replicas —
// processors, copy indices and all four times, compared exactly — in the
// same mapping order.
func requireSameSchedule(t *testing.T, label string, got, want *sched.Schedule) {
	t.Helper()
	if !reflect.DeepEqual(got.MappingOrder(), want.MappingOrder()) {
		t.Fatalf("%s: mapping order\n got  %v\n want %v", label, got.MappingOrder(), want.MappingOrder())
	}
	for task := 0; task < want.Graph.NumTasks(); task++ {
		g, w := got.Replicas(dag.TaskID(task)), want.Replicas(dag.TaskID(task))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: task %d replicas\n got  %+v\n want %+v", label, task, g, w)
		}
	}
}

// literalCases builds the property test's instances: the paper's layered
// generator, an Erdős–Rényi DAG and a fork-join, each with at most 60 tasks,
// on m processors. Every third instance is homogeneous (one delay, one cost),
// which makes urgencies tie and so makes the Rng draws matter.
func literalCases(t *testing.T, seed int64, m int) []literalCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(0) // unscaled: granularity is undefined at m = 1
	cfg.Procs = m
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 5, 60
	layered, err := workload.RandomDAG(rng, cfg.DAG)
	if err != nil {
		t.Fatal(err)
	}
	random, err := workload.ErdosRenyiDAG(rng, 5+rng.Intn(56), 0.15, cfg.DAG.MinVolume, cfg.DAG.MaxVolume)
	if err != nil {
		t.Fatal(err)
	}
	forkJoin, err := workload.ForkJoin(2+rng.Intn(8), 1+rng.Intn(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	cases := []literalCase{{name: "layered"}, {name: "random"}, {name: "fork-join"}}
	for i, g := range []*dag.Graph{layered, random, forkJoin} {
		inst, err := workload.NewInstanceForGraph(rng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seed%3 == 0 {
			if inst.Platform, err = uniformPlatform(m, 0.75); err != nil {
				t.Fatal(err)
			}
			cost := make([][]float64, g.NumTasks())
			for i := range cost {
				cost[i] = make([]float64, m)
				for j := range cost[i] {
					cost[i][j] = 40
				}
			}
			if inst.Costs, err = platform.NewCostModelFromMatrix(cost); err != nil {
				t.Fatal(err)
			}
		}
		cases[i].Instance = inst
	}
	return cases
}

type literalCase struct {
	name string
	*workload.Instance
}

// The memoised step, the row-wise arrivals under it and the top-(Npf+1)
// selection change how a schedule is computed, never the schedule: on random
// instances the result equals the literal step's replica for replica, and a
// seeded Rng is left in the same state (the same ties drew from it, in the
// same order).
func TestScheduleMatchesLiteralStep(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, m := range []int{1, 2, 3, 8, 20} {
			for _, inst := range literalCases(t, seed, m) {
				for _, npf := range []int{0, 1, 2, m - 1} {
					if npf >= m {
						continue
					}
					for _, seeded := range []bool{false, true} {
						for _, noDup := range []bool{false, true} {
							label := fmt.Sprintf("seed %d %s m=%d Npf=%d seeded=%v noDup=%v", seed, inst.name, m, npf, seeded, noDup)
							opt := sched.RunOptions{Epsilon: npf}
							if noDup {
								opt.Policy = "noduplication"
							}
							litOpt := opt
							if seeded {
								opt.Rng = rand.New(rand.NewSource(seed))
								litOpt.Rng = rand.New(rand.NewSource(seed))
							}
							got, err := schedule(inst.Graph, inst.Platform, inst.Costs, opt)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							want, err := scheduleLiteral(inst.Graph, inst.Platform, inst.Costs, litOpt)
							if err != nil {
								t.Fatalf("%s: literal: %v", label, err)
							}
							requireSameSchedule(t, label, got, want)
							if !seeded {
								continue
							}
							next := litOpt.Rng.Int63()
							if opt.Rng.Int63() != next {
								t.Fatalf("%s: Rng left in a different state", label)
							}
							if rand.New(rand.NewSource(seed)).Int63() != next {
								ties++ // the run drew from the Rng at least once
							}
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no instance broke a tie through the Rng: the draw-order property was not exercised")
	}
}

// A Minimize-Start-Time duplicate changes the arrivals of every successor of
// the duplicated task, not only of the task being placed: the memoised row
// of another free successor must be dropped with it.
//
// A(0) feeds B(1), C(2) and D(3) on three processors, Npf = 0:
//
//	step 1  A is the only free task: P0, [0,2). B, C and D become free and
//	        step 2 scans them, so C's row is memoised as (2, 12, 22).
//	step 2  D is the most urgent and starts where A's data is local: P0,
//	        [2,52). P0 is now busy past everything else.
//	step 3  B is next and starts earliest on P1, where A's message lands at
//	        2+5·1 = 7; duplicating A on P1 ([0,3)) beats that, so A gets a
//	        second replica and B runs on P1 in [3,4).
//	step 4  C hears from that duplicate: on P2 at 3+10·0.0625 = 3.625,
//	        before P1 is free (4) — C belongs on P2. From the stale row it
//	        would see (12, 22) on P1 and P2 and go to P1, starting at 4.
func TestDuplicateInvalidatesOtherFreeTasks(t *testing.T) {
	g := dag.NewWithTasks("shared-predecessor", 4)
	for _, e := range []struct {
		dst dag.TaskID
		vol float64
	}{{1, 5}, {2, 10}, {3, 100}} {
		if err := g.AddEdge(0, e.dst, e.vol); err != nil {
			t.Fatal(err)
		}
	}
	p, err := platform.NewFromDelays([][]float64{
		{0, 1, 2},
		{1, 0, 0.0625},
		{2, 0.0625, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{
		{2, 3, 10},   // A
		{30, 1, 30},  // B
		{3, 3, 3},    // C
		{50, 50, 50}, // D
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := schedule(g, p, cm, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if order := got.MappingOrder(); !reflect.DeepEqual(order, []dag.TaskID{0, 3, 1, 2}) {
		t.Fatalf("mapping order %v, want [0 3 1 2]", order)
	}
	wantA := []sched.Replica{
		{Task: 0, Copy: 0, Proc: 0, StartMin: 0, FinishMin: 2, StartMax: 0, FinishMax: 2},
		{Task: 0, Copy: 1, Proc: 1, StartMin: 0, FinishMin: 3, StartMax: 0, FinishMax: 3},
	}
	if a := got.Replicas(0); !reflect.DeepEqual(a, wantA) {
		t.Fatalf("A's replicas %+v, want the P0 original and a P1 duplicate %+v", a, wantA)
	}
	if c := got.Replicas(2); len(c) != 1 || c[0].Proc != 2 || c[0].StartMin != 3.625 {
		t.Fatalf("C placed as %+v, want one replica on P2 starting at 3.625 (fed by A's duplicate)", c)
	}
	want, err := scheduleLiteral(g, p, cm, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, "shared predecessor", got, want)
}
