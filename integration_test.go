package ftsched_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// buildFamily returns the named structured workload.
func buildFamily(t *testing.T, name string) *dag.Graph {
	t.Helper()
	var (
		g   *dag.Graph
		err error
	)
	switch name {
	case "chain":
		g, err = workload.Chain(20, 100)
	case "forkjoin":
		g, err = workload.ForkJoin(6, 3, 100)
	case "intree":
		g, err = workload.InTree(2, 4, 100)
	case "outtree":
		g, err = workload.OutTree(2, 4, 100)
	case "gauss":
		g, err = workload.GaussianElimination(8, 100)
	case "fft":
		g, err = workload.FFT(4, 100)
	case "stencil":
		g, err = workload.Stencil(5, 8, 100)
	case "independent":
		g = dag.NewWithTasks("independent-30", 30)
	default:
		t.Fatalf("unknown family %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllAlgorithmsOnAllFamilies is the cross-product integration test:
// every scheduler on every workload family, validated structurally and
// dynamically (crash simulation with ε failures).
func TestAllAlgorithmsOnAllFamilies(t *testing.T) {
	families := []string{"chain", "forkjoin", "intree", "outtree", "gauss", "fft", "stencil", "independent"}
	const procs = 8
	const eps = 2
	for _, fam := range families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			g := buildFamily(t, fam)
			cfg := ftsched.DefaultPaperConfig(1.0)
			cfg.Procs = procs
			if g.NumEdges() == 0 {
				cfg.Granularity = 0 // granularity undefined without edges
			}
			inst, err := ftsched.NewInstanceForGraph(rng, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			type algo struct {
				name string
				run  func() (*sched.Schedule, error)
			}
			algos := []algo{
				{"FTSA", func() (*sched.Schedule, error) {
					return sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
				}},
				{"MC-FTSA", func() (*sched.Schedule, error) {
					return sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
				}},
				{"FTBAR", func() (*sched.Schedule, error) {
					return sched.Run("ftbar", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
				}},
			}
			for _, a := range algos {
				s, err := a.run()
				if err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s: Validate: %v", a.name, err)
				}
				lb, ub := s.LowerBound(), s.UpperBound()
				if lb <= 0 || ub < lb-1e-9 || math.IsInf(ub, 1) {
					t.Fatalf("%s: bad bounds [%g, %g]", a.name, lb, ub)
				}
				// Survive ε crash-at-zero failures drawn at random.
				crng := rand.New(rand.NewSource(2))
				for trial := 0; trial < 5; trial++ {
					sc, err := sim.UniformCrashes(crng, procs, eps)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.Run(s, sc, nil)
					if err != nil {
						t.Fatalf("%s trial %d: %v", a.name, trial, err)
					}
					if res.Latency <= 0 {
						t.Fatalf("%s trial %d: latency %g", a.name, trial, res.Latency)
					}
				}
				// Metrics must be computable and self-consistent.
				m, err := s.ComputeMetrics()
				if err != nil {
					t.Fatalf("%s: metrics: %v", a.name, err)
				}
				if m.Replicas < g.NumTasks()*(eps+1) {
					t.Fatalf("%s: %d replicas < v(ε+1)", a.name, m.Replicas)
				}
				if m.MeanUtilization < 0 || m.MeanUtilization > 1+1e-9 {
					t.Fatalf("%s: utilization %g", a.name, m.MeanUtilization)
				}
			}
			// HEFT as the non-fault-tolerant reference.
			h, err := sched.Run("heft", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
			if err != nil {
				t.Fatalf("HEFT: %v", err)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("HEFT: %v", err)
			}
		})
	}
}

// TestInstancePersistenceRoundTrip saves a full instance to JSON and reloads
// it; schedules computed before and after must coincide exactly.
func TestInstancePersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := ftsched.DefaultPaperConfig(0.9)
	cfg.Procs = 6
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := ftsched.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gBuf, pBuf, cBuf bytes.Buffer
	if _, err := inst.Graph.WriteTo(&gBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Platform.WriteTo(&pBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Costs.WriteTo(&cBuf); err != nil {
		t.Fatal(err)
	}
	g2, err := dag.Read(&gBuf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := platform.Read(&pBuf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := platform.ReadCostModel(&cBuf)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := ftsched.ScheduleByName("ftsa", g2, p2, c2, ftsched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if before.LowerBound() != after.LowerBound() || before.UpperBound() != after.UpperBound() {
		t.Errorf("bounds changed across persistence: (%g,%g) vs (%g,%g)",
			before.LowerBound(), before.UpperBound(), after.LowerBound(), after.UpperBound())
	}
}

// TestPublicFacadeCoversWorkflow walks the whole public API the way the
// README's quick start does, with assertions at each step.
func TestPublicFacadeCoversWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst, err := ftsched.NewInstance(rng, ftsched.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := ftsched.Granularity(inst.Graph, inst.Costs, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gr-1.0) > 1e-9 {
		t.Errorf("granularity %g", gr)
	}
	s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ftsched.UniformCrashes(rng, inst.Platform.NumProcs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftsched.Simulate(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency > s.UpperBound()+1e-7 {
		t.Errorf("latency %g above guarantee %g", res.Latency, s.UpperBound())
	}
	mc, err := ftsched.ScheduleByName("mcftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if mc.MessageCount() >= s.MessageCount() {
		t.Errorf("MC-FTSA messages %d >= FTSA %d", mc.MessageCount(), s.MessageCount())
	}
	bar, err := ftsched.ScheduleByName("ftbar", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := bar.Validate(); err != nil {
		t.Fatal(err)
	}
	gen, err := ftsched.ScenarioSpec{Kind: "exp", Lambda: 0.1 / s.UpperBound()}.Generator()
	if err != nil {
		t.Fatal(err)
	}
	mcr, err := ftsched.Evaluate(s, gen, 100, ftsched.EvalOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mcr.SuccessRate <= 0 || mcr.SuccessRate > 1 {
		t.Errorf("MC success %g", mcr.SuccessRate)
	}
	sd, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs,
		ftsched.RunOptions{Epsilon: 1, Latency: s.UpperBound() * 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatedFaultFreeEqualsBoundAcrossAlgorithms pins the core dynamic
// invariant on a matrix of instances: with no failures, the simulator must
// reproduce each schedule's lower bound exactly (FTSA, MC-FTSA) or within
// the duplication distortion (FTBAR, whose out-of-order duplicates make the
// mapping-order replay approximate; see internal/sim docs).
func TestSimulatedFaultFreeEqualsBoundAcrossAlgorithms(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := ftsched.DefaultPaperConfig(1.0)
		cfg.Procs = 10
		cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 40, 60
		inst, err := ftsched.NewInstance(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []int{0, 1, 3} {
			f, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(f, sim.NoFailures(10), nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Latency-f.LowerBound()) > 1e-7 {
				t.Errorf("seed %d ε=%d: FTSA sim %g != bound %g", seed, eps, res.Latency, f.LowerBound())
			}
			m, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			mres, err := sim.Run(m, sim.NoFailures(10), nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(mres.Latency-m.LowerBound()) > 1e-7 {
				t.Errorf("seed %d ε=%d: MC-FTSA sim %g != bound %g", seed, eps, mres.Latency, m.LowerBound())
			}
		}
	}
}

// TestEpsilonSweepInvariants sweeps ε on one instance and checks the
// monotone resource facts that must hold regardless of heuristic noise:
// replica count and message count grow strictly with ε.
func TestEpsilonSweepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := ftsched.DefaultPaperConfig(1.0)
	cfg.Procs = 12
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 40, 60
	inst, err := ftsched.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevMsgs := -1
	for eps := 0; eps <= 5; eps++ {
		s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.ComputeMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.Replicas != inst.Graph.NumTasks()*(eps+1) {
			t.Errorf("ε=%d: %d replicas", eps, m.Replicas)
		}
		if m.Messages <= prevMsgs {
			t.Errorf("ε=%d: messages %d not growing (prev %d)", eps, m.Messages, prevMsgs)
		}
		prevMsgs = m.Messages
	}
}

// TestGanttRendersForEveryAlgorithm exercises the renderer across pattern
// and duplication variants.
func TestGanttRendersForEveryAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := ftsched.DefaultPaperConfig(1.0)
	cfg.Procs = 6
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 15, 20
	inst, err := ftsched.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) {
			return sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
		},
		func() (*sched.Schedule, error) {
			return sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
		},
		func() (*sched.Schedule, error) {
			return sched.Run("ftbar", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
		},
		func() (*sched.Schedule, error) {
			return sched.Run("heft", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
		},
	}
	for i, r := range run {
		s, err := r()
		if err != nil {
			t.Fatalf("algo %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := s.WriteGantt(&buf, sched.GanttOptions{Width: 60}); err != nil {
			t.Fatalf("algo %d gantt: %v", i, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("algo %d: empty gantt", i)
		}
		if s.Summary() == "" {
			t.Fatalf("algo %d: empty summary", i)
		}
	}
	_ = fmt.Sprintf // silence potential unused import under refactors
}
