package ftsched_test

// The walkthroughs below are whole programs, one per use of the library: go
// test runs each and compares what it prints with its Output block.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"

	"ftsched"
	"ftsched/internal/core"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// Quickstart: generate a paper-style random workload, schedule it with FTSA
// so it tolerates two processor failures, inspect the latency bounds, and
// watch the schedule survive an actual double crash.
func Example_quickstart() {
	rng := rand.New(rand.NewSource(42))

	// A random task graph with the paper's parameters: 100-150 tasks,
	// message volumes in [50,150], 20 heterogeneous processors with unit
	// delays in [0.5,1], scaled to granularity 1.0.
	inst, err := ftsched.NewInstance(rng, ftsched.DefaultPaperConfig(1.0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d tasks, %d edges, %d processors\n",
		inst.Graph.NumTasks(), inst.Graph.NumEdges(), inst.Platform.NumProcs())

	// Tolerate ε = 2 fail-stop failures: every task runs on 3 processors.
	const epsilon = 2
	s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FTSA schedule (ε=%d):\n", epsilon)
	fmt.Printf("  latency if nothing fails:       %.1f\n", s.LowerBound())
	fmt.Printf("  latency guaranteed under ε=2:   %.1f\n", s.UpperBound())
	fmt.Printf("  inter-processor messages:       %d\n", s.MessageCount())

	// Crash two processors, chosen uniformly, before they do any work.
	sc, err := ftsched.UniformCrashes(rng, inst.Platform.NumProcs(), epsilon)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ftsched.Simulate(s, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 2 crashes the application still finished at %.1f "+
		"(within the %.1f guarantee)\n", res.Latency, s.UpperBound())

	// MC-FTSA: same fault tolerance, a fraction of the messages.
	mc, err := ftsched.ScheduleByName("mcftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MC-FTSA cuts messages from %d to %d (latency %.1f -> %.1f)\n",
		s.MessageCount(), mc.MessageCount(), s.LowerBound(), mc.LowerBound())
	// Output:
	// workload: 105 tasks, 364 edges, 20 processors
	// FTSA schedule (ε=2):
	//   latency if nothing fails:       2022.6
	//   latency guaranteed under ε=2:   3112.1
	//   inter-processor messages:       3096
	// after 2 crashes the application still finished at 2055.9 (within the 3112.1 guarantee)
	// MC-FTSA cuts messages from 3096 to 903 (latency 2022.6 -> 2534.6)
}

// Bi-criteria trade-off exploration (Section 4.3 of the paper): given a
// latency budget, how many processor failures can a workload tolerate? And
// given both a budget and ε, detect infeasible combinations early via task
// deadlines.
func Example_bicriteria() {
	rng := rand.New(rand.NewSource(3))
	inst, err := ftsched.NewInstance(rng, ftsched.DefaultPaperConfig(0.8))
	if err != nil {
		log.Fatal(err)
	}
	m := inst.Platform.NumProcs()

	// Reference points: the fault-free latency and the guarantee at maximum
	// replication.
	ff, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 0})
	if err != nil {
		log.Fatal(err)
	}
	full, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: m - 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free latency %.0f; all-processors replication guarantees %.0f\n\n",
		ff.LowerBound(), full.UpperBound())

	// Sweep latency budgets between the two and binary-search the maximum
	// tolerated ε for each (the paper's first bi-criteria driver).
	fmt.Printf("%-14s %8s %14s\n", "budget", "max ε", "guaranteed")
	for f := 1.0; f <= 3.0; f += 0.25 {
		budget := ff.LowerBound() * f
		eps, s, err := ftsched.MaxToleratedFailures("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{}, budget)
		if err != nil {
			fmt.Printf("%-14.0f %8s %14s\n", budget, "-", "unachievable")
			continue
		}
		fmt.Printf("%-14.0f %8d %14.0f\n", budget, eps, s.UpperBound())
	}

	// Second driver: both criteria fixed, feasibility detected during
	// scheduling via per-task deadlines.
	fmt.Println("\njoint feasibility (ε=2, deadline-checked):")
	for _, f := range []float64{0.5, 1.5, 4.0} {
		budget := ff.LowerBound() * f
		_, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
			ftsched.RunOptions{Epsilon: 2, Latency: budget})
		switch {
		case err == nil:
			fmt.Printf("  L=%.0f: feasible\n", budget)
		case errors.Is(err, core.ErrDeadline):
			fmt.Printf("  L=%.0f: infeasible, detected mid-schedule (%v)\n", budget, err)
		default:
			log.Fatal(err)
		}
	}
	// Output:
	// fault-free latency 1445; all-processors replication guarantees 28711
	//
	// budget            max ε     guaranteed
	// 1445                  0           1445
	// 1806                  0           1445
	// 2167                  1           2146
	// 2529                  1           2146
	// 2890                  2           2838
	// 3251                  2           2838
	// 3612                  2           2838
	// 3974                  2           2838
	// 4335                  3           4030
	//
	// joint feasibility (ε=2, deadline-checked):
	//   L=722: infeasible, detected mid-schedule (core: failed to satisfy both latency and failure criteria simultaneously: task 0 finishes at 49.95 after deadline -466.4)
	//   L=2167: feasible
	//   L=5780: feasible
}

// Reliability analysis (the paper's future-work failure model): an FFT
// signal-processing pipeline runs on processors whose lifetimes follow an
// exponential law. How does the replication degree ε trade latency against
// the probability of delivering a result?
func Example_reliability() {
	rng := rand.New(rand.NewSource(11))

	// Radix-2 FFT on 32 points: 192 butterfly tasks.
	g, err := workload.FFT(5, 80)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ftsched.DefaultPaperConfig(1.2)
	cfg.Procs = 16
	inst, err := ftsched.NewInstanceForGraph(rng, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFT pipeline: %d tasks, %d edges on %d processors\n\n",
		g.NumTasks(), g.NumEdges(), cfg.Procs)

	// Failure rate: a processor has roughly a 10% chance of dying during
	// one fault-free execution of the pipeline.
	base, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 0})
	if err != nil {
		log.Fatal(err)
	}
	law := ftsched.Exponential{Lambda: 0.1 / base.LowerBound()}
	// The sampled estimate replays the schedule under crash times drawn
	// from the same law: the exp scenario kind.
	gen, err := ftsched.ScenarioSpec{Kind: "exp", Lambda: law.Lambda}.Generator()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%4s %12s %12s %16s %14s\n",
		"ε", "latency", "guarantee", "P(survive) ≥", "Monte-Carlo")
	for eps := 0; eps <= 4; eps++ {
		s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
			ftsched.RunOptions{Epsilon: eps, Rng: rng})
		if err != nil {
			log.Fatal(err)
		}
		bound, err := ftsched.SurvivalLowerBound(law, cfg.Procs, eps, s.UpperBound())
		if err != nil {
			log.Fatal(err)
		}
		mc, err := ftsched.Evaluate(s, gen, 2000, ftsched.EvalOptions{Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %12.1f %12.1f %16.4f %14.4f\n",
			eps, s.LowerBound(), s.UpperBound(), bound, mc.SuccessRate)
	}
	fmt.Println("\nreplication buys reliability; the latency column shows its price.")
	// Output:
	// FFT pipeline: 192 tasks, 320 edges on 16 processors
	//
	//    ε      latency    guarantee     P(survive) ≥    Monte-Carlo
	//    0        899.2        899.2           0.2019         0.2480
	//    1       1854.9       3033.6           0.0336         0.4040
	//    2       2674.7       4534.0           0.0198         0.6200
	//    3       3290.0       5645.8           0.0208         0.7950
	//    4       4225.7       8022.4           0.0062         0.8250
	//
	// replication buys reliability; the latency column shows its price.
}

// Linear algebra on an unreliable cluster: schedule the task graph of
// Gaussian elimination — a classic motivating workload for heterogeneous
// scheduling — with all three algorithms and compare latency bounds, message
// counts and behaviour under crashes.
func Example_linearalgebra() {
	rng := rand.New(rand.NewSource(7))

	// Gaussian elimination on a 12x12 matrix: 77 tasks with the classic
	// pivot/update dependence structure, one column (100 units) exchanged
	// per edge.
	g, err := workload.GaussianElimination(12, 100)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ftsched.DefaultPaperConfig(1.0)
	cfg.Procs = 12
	inst, err := ftsched.NewInstanceForGraph(rng, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Gaussian elimination DAG: %d tasks, %d edges on %d processors\n",
		g.NumTasks(), g.NumEdges(), cfg.Procs)

	const epsilon = 2
	type row struct {
		name string
		s    *ftsched.Schedule
	}
	ftsa, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	mc, err := ftsched.ScheduleByName("mcftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	bar, err := ftsched.ScheduleByName("ftbar", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %12s %12s %10s\n", "algorithm", "lower bound", "upper bound", "messages")
	for _, r := range []row{{"FTSA", ftsa}, {"MC-FTSA", mc}, {"FTBAR", bar}} {
		fmt.Printf("%-10s %12.1f %12.1f %10d\n",
			r.name, r.s.LowerBound(), r.s.UpperBound(), r.s.MessageCount())
	}

	// Crash every possible pair of processors and report the worst observed
	// latency per algorithm — an exhaustive check of the ε=2 guarantee.
	fmt.Printf("\nexhaustive double-crash sweep (%d scenarios):\n", 12*11/2)
	for _, r := range []row{{"FTSA", ftsa}, {"MC-FTSA", mc}, {"FTBAR", bar}} {
		worst := 0.0
		for a := 0; a < cfg.Procs; a++ {
			for b := a + 1; b < cfg.Procs; b++ {
				sc, err := ftsched.CrashAtZero(cfg.Procs, ftsched.ProcID(a), ftsched.ProcID(b))
				if err != nil {
					log.Fatal(err)
				}
				res, err := ftsched.Simulate(r.s, sc)
				if err != nil {
					log.Fatalf("%s failed under crash {%d,%d}: %v", r.name, a, b, err)
				}
				if res.Latency > worst {
					worst = res.Latency
				}
			}
		}
		fmt.Printf("  %-10s worst latency %.1f (guarantee %.1f)\n", r.name, worst, r.s.UpperBound())
	}
	// Output:
	// Gaussian elimination DAG: 77 tasks, 131 edges on 12 processors
	//
	// algorithm   lower bound  upper bound   messages
	// FTSA             2870.2       6690.5       1040
	// MC-FTSA          3979.0       5215.3        255
	// FTBAR            2363.3       4829.3       1332
	//
	// exhaustive double-crash sweep (66 scenarios):
	//   FTSA       worst latency 3268.4 (guarantee 6690.5)
	//   MC-FTSA    worst latency 5260.5 (guarantee 5215.3)
	//   FTBAR      worst latency 2866.0 (guarantee 4829.3)
}

// Fault-tolerant execution of real Go functions: build a wavefront
// computation as a DAG, schedule it with FTSA (ε=2), then run it on actual
// goroutine workers — killing two processors mid-run and still collecting
// every result, byte-identical to a crash-free run.
func Example_goexec() {
	rng := rand.New(rand.NewSource(9))

	// A 6x6 wavefront: task (i,j) combines its north and west neighbours.
	const rows, cols = 6, 6
	g, err := workload.Stencil(rows, cols, 64)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ftsched.DefaultPaperConfig(1.0)
	cfg.Procs = 6
	inst, err := ftsched.NewInstanceForGraph(rng, g, cfg)
	if err != nil {
		log.Fatal(err)
	}

	const epsilon = 2
	s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: epsilon, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Summary())

	// Real task functions: cell (i,j) holds 1 + north + west, i.e. the
	// number of lattice paths — Pascal's triangle on its side.
	fns := make([]ftsched.TaskFunc, g.NumTasks())
	for t := 0; t < g.NumTasks(); t++ {
		fns[t] = func(inputs []ftsched.TaskPayload) (ftsched.TaskPayload, error) {
			total := uint64(1)
			if len(inputs) > 0 {
				total = 0
				for _, in := range inputs {
					total += binary.LittleEndian.Uint64(in)
				}
			}
			out := make(ftsched.TaskPayload, 8)
			binary.LittleEndian.PutUint64(out, total)
			return out, nil
		}
	}

	// Crash-free reference run.
	clean, err := ftsched.Execute(s, fns, ftsched.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Now kill P1 before it does anything and P3 after three replicas.
	crashed, err := ftsched.Execute(s, fns, ftsched.ExecConfig{
		CrashAfter: map[ftsched.ProcID]int{1: 0, 3: 3},
	})
	if err != nil {
		log.Fatal(err)
	}

	corner := g.NumTasks() - 1
	cleanV := binary.LittleEndian.Uint64(clean.Output[corner])
	crashV := binary.LittleEndian.Uint64(crashed.Output[corner])
	fmt.Printf("corner value crash-free: %d\n", cleanV)
	fmt.Printf("corner value with P1 dead and P3 dying mid-run: %d\n", crashV)
	if cleanV != crashV {
		log.Fatal("results diverged!")
	}
	fmt.Printf("(%d messages clean, %d under crashes — the protocol absorbed both failures)\n",
		clean.MessagesSent, crashed.MessagesSent)
	// Output:
	// FTSA: 36 tasks ×3 replicas on 6 processors (ε=2, all pattern); latency [1167, 2699], 445 inter-processor messages
	// corner value crash-free: 252
	// corner value with P1 dead and P3 dying mid-run: 252
	// (445 messages clean, 328 under crashes — the protocol absorbed both failures)
}

// Observability: everything the library tells you about a schedule beyond
// the two latency numbers — Gantt chart, resource metrics, theoretical
// quality bounds, and a complete execution trace of a crash scenario.
func Example_observability() {
	rng := rand.New(rand.NewSource(5))

	// A tiled Cholesky factorization on 6 processors, ε=1.
	g, err := workload.Cholesky(5, 80)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ftsched.DefaultPaperConfig(1.0)
	cfg.Procs = 6
	inst, err := ftsched.NewInstanceForGraph(rng, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: 1, Rng: rng})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(s.Summary())
	fmt.Println()

	// The Gantt chart: who computes what, when.
	if err := s.WriteGantt(os.Stdout, sched.GanttOptions{Width: 90}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Resource metrics.
	m, err := s.ComputeMetrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replicas %d (factor %.2f), comm volume %.0f over %d messages\n",
		m.Replicas, m.ReplicationFactor, m.CommVolume, m.Messages)
	fmt.Printf("utilization mean %.0f%% (min %.0f%%, max %.0f%%)\n",
		100*m.MeanUtilization, 100*m.MinUtilization, 100*m.MaxUtilization)

	// How far from optimal? Compare against machine-independent bounds.
	q, err := s.QualityRatio()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free latency is %.2fx the theoretical lower bound\n\n", q)

	// Kill one processor halfway through and watch the replay, event by
	// event (output truncated to the interesting part).
	sc := ftsched.NoFailures(6)
	if err := sc.Crash(2, s.LowerBound()/2); err != nil {
		log.Fatal(err)
	}
	tr := &sim.Trace{}
	res, err := sim.RunWithOptions(s, sc, sim.Options{Trace: tr})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P2 dies at %.0f; application still finishes at %.0f (bound %.0f)\n",
		s.LowerBound()/2, res.Latency, s.UpperBound())
	events := map[sim.EventKind]int{}
	for _, e := range tr.Events {
		events[e.Kind]++
	}
	fmt.Printf("%d replica(s) cut mid-execution, %d starved and skipped, %d completed\n",
		events[sim.EventKilled], events[sim.EventSkip], events[sim.EventFinish])
	// Output:
	// FTSA: 35 tasks ×2 replicas on 6 processors (ε=1, all pattern); latency [1221, 2204], 186 inter-processor messages
	//
	// FTSA schedule, ε=1, horizon 1307 (1 column = 14.52)
	// P0   |       3333333333366666666aaaaaaalllll qqq888kkkkkkkkkkssssssssssss    wwmmttttttxx       |
	// P1   |      22222222777   gggggggggg      pp  dddddd88kkkkkksssssvvvvvvbbbbbb                   |
	// P2   |            55f3333       hhaaaa ll   cccccccciiiiinnnrrrrrrrbbbbbbbmmmmmmm        yyyyyyy|
	// P3   |00111111111111         99ggg   jjjjjj44ddddddeeeeee    ooooooooo      www                 |
	// P4   |               ff    99666666666444cccccccciiiiiiinnnnnnnnnnrrr uuuu         ttxyyyyy     |
	// P5   |0011111155522277777        hhhjjpppp   qqqeeeeeeeee   ooooooo    uuvvv                    |
	//
	// replicas 70 (factor 2.92), comm volume 14880 over 186 messages
	// utilization mean 59% (min 52%, max 74%)
	// fault-free latency is 2.65x the theoretical lower bound
	//
	// P2 dies at 610; application still finishes at 1282 (bound 2204)
	// 7 replica(s) cut mid-execution, 0 starved and skipped, 63 completed
}
