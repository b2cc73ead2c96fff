package schedulers_test

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// TestSchedulerInvariants is the property-based validity checker: every
// registered scheduler runs over a seeded grid of random workloads, and the
// structural invariants of a fault-tolerant schedule are asserted directly
// from the public schedule surface (independently of Schedule.Validate, so a
// validator bug cannot mask a scheduler bug):
//
//   - the mapping order is a topological order covering every task once;
//   - every task carries >= ε+1 replicas on >= ε+1 pairwise distinct
//     processors (Proposition 4.1), with ε drawn from the registry's
//     capability surface (0 for non-fault-tolerant schedulers);
//   - no two executions overlap on one processor, in the optimistic and
//     the pessimistic window alike;
//   - replica windows are consistent (start >= 0, duration == cost);
//   - ProcOrder lists every replica once, each processor's bucket ordered
//     by (StartMin, mapping position, copy) with no optimistic overlap;
//   - for schedulers registered with Deadlines support, a run under a
//     latency budget that succeeds honors it: UpperBound <= budget.
//
// The grid stays small enough for -race; the instance set is deterministic,
// so a failure names a reproducible (scheduler, instance, ε) triple.
func TestSchedulerInvariants(t *testing.T) {
	grid := []struct {
		procs, minTasks, maxTasks int
		granularity               float64
	}{
		{4, 12, 18, 0.5},
		{6, 20, 30, 1.0},
		{9, 25, 35, 2.0},
	}
	for _, r := range sched.Registrations() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			t.Parallel()
			// Processors whose pessimistic windows run in another order than
			// ProcOrder, on schedules that pass Validate.
			reordered := 0
			epsilons := []int{0}
			if r.FaultTolerant {
				epsilons = []int{0, 1, 2}
			}
			for gi, gspec := range grid {
				for inst := 0; inst < 3; inst++ {
					rng := rand.New(rand.NewSource(int64(1000*gi + inst)))
					cfg := workload.DefaultPaperConfig(gspec.granularity)
					cfg.Procs = gspec.procs
					cfg.DAG.MinTasks, cfg.DAG.MaxTasks = gspec.minTasks, gspec.maxTasks
					in, err := workload.NewInstance(rng, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, eps := range epsilons {
						if eps+1 > gspec.procs {
							continue
						}
						name := fmt.Sprintf("grid%d/inst%d/eps%d", gi, inst, eps)
						s, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs,
							sched.RunOptions{Epsilon: eps, Rng: rand.New(rand.NewSource(int64(inst + 1)))})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := checkInvariants(s, in, eps); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						n, err := checkProcOrder(s)
						if err != nil {
							t.Errorf("%s: %v", name, err)
						}
						// The schedule's own validator must agree.
						if err := s.Validate(); err != nil {
							t.Errorf("%s: Validate: %v", name, err)
						} else {
							reordered += n
						}
					}
				}
			}
			// ftsa-ins inserts into gaps of the optimistic timeline but appends
			// its pessimistic windows, which is why Validate sorts those by
			// their own start. The grid must keep a case that shows it.
			if r.Name() == "ftsa-ins" && reordered == 0 {
				t.Error("no processor runs its pessimistic windows out of ProcOrder: the grid lost the case Validate's pessimistic sort is for")
			}
		})
	}
}

// TestSchedulerDeadlineInvariant covers the Deadlines capability: when a
// deadline-checked run succeeds, the guaranteed upper bound fits the budget;
// an infeasibly tight budget must fail rather than emit a late schedule.
func TestSchedulerDeadlineInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 6
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 20, 30
	in, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sched.Registrations() {
		if !r.Deadlines {
			continue
		}
		t.Run(r.Name(), func(t *testing.T) {
			free, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs,
				sched.RunOptions{Epsilon: 1, Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatal(err)
			}
			// A generous budget must be met and honored.
			budget := free.UpperBound() * 2
			s, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs,
				sched.RunOptions{Epsilon: 1, Rng: rand.New(rand.NewSource(1)), Latency: budget})
			if err != nil {
				t.Fatalf("budget 2×UB rejected: %v", err)
			}
			if s.UpperBound() > budget+1e-9 {
				t.Fatalf("deadline run guarantees %g over the %g budget", s.UpperBound(), budget)
			}
			if err := checkInvariants(s, in, 1); err != nil {
				t.Fatal(err)
			}
			// An impossible budget must error, not under-deliver silently.
			if _, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs,
				sched.RunOptions{Epsilon: 1, Rng: rand.New(rand.NewSource(1)), Latency: free.LowerBound() / 1e6}); err == nil {
				t.Fatal("absurdly tight budget produced a schedule")
			}
		})
	}
}

// TestSchedulerCapabilityChecks asserts the registry's capability surface is
// enforced uniformly at dispatch: bad ε, unknown policies and unsupported
// deadlines are rejected by name.
func TestSchedulerCapabilityChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 4
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 8, 12
	in, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sched.Registrations() {
		if !r.FaultTolerant {
			if _, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs, sched.RunOptions{Epsilon: 1}); err == nil {
				t.Errorf("%s: ε=1 accepted by a non-fault-tolerant scheduler", r.Name())
			}
		}
		if _, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs, sched.RunOptions{Policy: "no-such-policy"}); err == nil {
			t.Errorf("%s: unknown policy accepted", r.Name())
		}
		if !r.Deadlines {
			if _, err := sched.Run(r.Name(), in.Graph, in.Platform, in.Costs, sched.RunOptions{Latency: 10}); err == nil {
				t.Errorf("%s: latency budget accepted without Deadlines capability", r.Name())
			}
		}
	}
	if _, err := sched.Run("no-such-scheduler", in.Graph, in.Platform, in.Costs, sched.RunOptions{}); !errors.Is(err, sched.ErrUnknownScheduler) {
		t.Errorf("unknown scheduler error = %v, want ErrUnknownScheduler", err)
	}
}

// checkProcOrder checks ProcOrder against the schedule's replicas, and counts the processors whose pessimistic windows do not
// start in ProcOrder.
func checkProcOrder(s *sched.Schedule) (reordered int, err error) {
	pos := make(map[dag.TaskID]int)
	for i, t := range s.MappingOrder() {
		pos[t] = i
	}
	order, lo := s.ProcOrder()
	if len(lo) != s.Platform.NumProcs()+1 || lo[0] != 0 || lo[len(lo)-1] != len(order) {
		return 0, fmt.Errorf("ProcOrder has %d buckets over %v, want %d over [0, %d]", len(lo)-1, lo, s.Platform.NumProcs(), len(order))
	}
	type key struct {
		task dag.TaskID
		copy int
	}
	listed := make(map[key]bool)
	for p := 0; p < s.Platform.NumProcs(); p++ {
		bucket := order[lo[p]:lo[p+1]]
		for i, r := range bucket {
			k := key{r.Task, r.Copy}
			if listed[k] || r.Proc != platform.ProcID(p) || r.Copy >= len(s.Replicas(r.Task)) || s.Replicas(r.Task)[r.Copy] != r {
				return 0, fmt.Errorf("P%d: ProcOrder lists task %d copy %d twice, misplaced or altered", p, r.Task, r.Copy)
			}
			listed[k] = true
			if i == 0 {
				continue
			}
			prev := bucket[i-1]
			if r.StartMin < prev.StartMin || r.StartMin == prev.StartMin &&
				(pos[r.Task] < pos[prev.Task] || r.Task == prev.Task && r.Copy < prev.Copy) {
				return 0, fmt.Errorf("P%d: task %d copy %d ordered after task %d copy %d", p, r.Task, r.Copy, prev.Task, prev.Copy)
			}
			if r.StartMin < prev.FinishMin-1e-7 {
				return 0, fmt.Errorf("P%d Min window: task %d copy %d overlaps task %d copy %d in ProcOrder", p, prev.Task, prev.Copy, r.Task, r.Copy)
			}
		}
		if !slices.IsSortedFunc(bucket, func(a, b sched.Replica) int { return cmp.Compare(a.StartMax, b.StartMax) }) {
			reordered++
		}
	}
	for t := 0; t < s.Graph.NumTasks(); t++ {
		for _, r := range s.Replicas(dag.TaskID(t)) {
			if !listed[key{r.Task, r.Copy}] {
				return 0, fmt.Errorf("ProcOrder misses task %d copy %d", r.Task, r.Copy)
			}
		}
	}
	return reordered, nil
}

// checkInvariants asserts the structural schedule invariants from the public
// surface only.
func checkInvariants(s *sched.Schedule, in *workload.Instance, eps int) error {
	g, cm := in.Graph, in.Costs
	v := g.NumTasks()

	order := s.MappingOrder()
	if len(order) != v {
		return fmt.Errorf("mapping order covers %d of %d tasks", len(order), v)
	}
	if !g.IsTopologicalOrder(order) {
		return fmt.Errorf("mapping order is not topological")
	}

	type span struct {
		start, finish float64
		task          dag.TaskID
	}
	minSpans := make(map[platform.ProcID][]span)
	maxSpans := make(map[platform.ProcID][]span)
	for t := 0; t < v; t++ {
		tid := dag.TaskID(t)
		reps := s.Replicas(tid)
		if len(reps) < eps+1 {
			return fmt.Errorf("task %d has %d replicas, want >= %d", t, len(reps), eps+1)
		}
		procs := map[platform.ProcID]bool{}
		for _, rep := range reps {
			procs[rep.Proc] = true
			cost := cm.Cost(tid, rep.Proc)
			if rep.StartMin < -1e-9 || rep.StartMax < rep.StartMin-1e-9 {
				return fmt.Errorf("task %d copy %d has invalid starts (%g, %g)", t, rep.Copy, rep.StartMin, rep.StartMax)
			}
			if d := rep.FinishMin - rep.StartMin; math.Abs(d-cost) > 1e-7 {
				return fmt.Errorf("task %d copy %d Min duration %g != cost %g", t, rep.Copy, d, cost)
			}
			if d := rep.FinishMax - rep.StartMax; math.Abs(d-cost) > 1e-7 {
				return fmt.Errorf("task %d copy %d Max duration %g != cost %g", t, rep.Copy, d, cost)
			}
			minSpans[rep.Proc] = append(minSpans[rep.Proc], span{rep.StartMin, rep.FinishMin, tid})
			maxSpans[rep.Proc] = append(maxSpans[rep.Proc], span{rep.StartMax, rep.FinishMax, tid})
		}
		if len(procs) < eps+1 {
			return fmt.Errorf("task %d uses %d distinct processors, want >= %d (replica space, Prop. 4.1)", t, len(procs), eps+1)
		}
	}
	for kind, spans := range map[string]map[platform.ProcID][]span{"Min": minSpans, "Max": maxSpans} {
		for proc, ss := range spans {
			sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
			for i := 1; i < len(ss); i++ {
				if ss[i].start < ss[i-1].finish-1e-7 {
					return fmt.Errorf("P%d %s window: task %d [%g,%g) overlaps task %d [%g,%g)",
						proc, kind, ss[i-1].task, ss[i-1].start, ss[i-1].finish,
						ss[i].task, ss[i].start, ss[i].finish)
				}
			}
		}
	}

	// Latency bounds must be finite, ordered, and consistent with the
	// replica windows.
	lb, ub := s.LowerBound(), s.UpperBound()
	if math.IsInf(lb, 1) || lb <= 0 || ub < lb-1e-9 {
		return fmt.Errorf("implausible bounds [%g, %g]", lb, ub)
	}
	return nil
}
