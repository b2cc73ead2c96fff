// Benchmarks regenerating the paper's evaluation, one per table and figure
// (see DESIGN.md §5 for the experiment index), plus the ablations X1-X3.
// The full-size figure batches (60 graphs per point) are produced by
// `go run ./cmd/ftexp`; the benchmarks here measure representative
// figure points and the Table 1 scaling shape so `go test -bench=.` gives
// the complete per-experiment cost profile.
package ftsched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/exec"
	"ftsched/internal/expt"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// benchInstance draws the paper's Figure 1-3 workload at granularity 1.0.
func benchInstance(b *testing.B, seed int64, procs int) *workload.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// figurePoint benchmarks one figure point: all three schedulers plus the
// crash simulation on a paper-sized instance, for the given ε.
func figurePoint(b *testing.B, eps int, procs int) {
	inst := benchInstance(b, 1, procs)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps}); err != nil {
			b.Fatal(err)
		}
		if _, err := sched.Run("ftbar", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps}); err != nil {
			b.Fatal(err)
		}
		sc, err := sim.UniformCrashes(rng, procs, eps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(s, sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Point measures one ε=1 figure point (bounds + crash run).
func BenchmarkFigure1Point(b *testing.B) { figurePoint(b, 1, 20) }

// BenchmarkFigure2Point measures one ε=2 figure point.
func BenchmarkFigure2Point(b *testing.B) { figurePoint(b, 2, 20) }

// BenchmarkFigure3Point measures one ε=5 figure point.
func BenchmarkFigure3Point(b *testing.B) { figurePoint(b, 5, 20) }

// BenchmarkFigure4Point measures one Figure 4 point (5 processors, ε=2,
// FTSA with 0/1/2 crashes).
func BenchmarkFigure4Point(b *testing.B) {
	inst := benchInstance(b, 3, 5)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k <= 2; k++ {
			sc, err := sim.UniformCrashes(rng, 5, k)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(s, sc, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigureHarness runs the Figure 1 campaign preset and its panel
// projection on a reduced configuration, covering the exact code path of
// `ftexp -fig 1`.
func BenchmarkFigureHarness(b *testing.B) {
	c, err := expt.FigureCampaign(1)
	if err != nil {
		b.Fatal(err)
	}
	c.Granularities = []float64{1.0}
	c.Instances = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := expt.RunCampaign(c, expt.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := expt.FigurePanels(1, res); err != nil {
			b.Fatal(err)
		}
	}
}

// table1Instance draws the Table 1 workload: v tasks, 50 processors, ε=5.
func table1Instance(b *testing.B, v int) *workload.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(v)))
	cfg := workload.PaperConfig{
		DAG: workload.RandomDAGConfig{
			MinTasks: v, MaxTasks: v,
			MinVolume: 50, MaxVolume: 150,
			ShapeFactor: 1.0, EdgeDensity: 0.25,
		},
		Procs:    50,
		MinDelay: 0.5, MaxDelay: 1.0,
		MinCost: 10, MaxCost: 100,
		Granularity: 1.0,
	}
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkTable1 reproduces the paper's running-time table: sub-benchmarks
// per algorithm and task count (m=50, ε=5). Compare the growth of the
// FTBAR/v series against FTSA/v — the paper's Table 1 claim.
func BenchmarkTable1(b *testing.B) {
	for _, v := range []int{100, 500, 1000, 2000} {
		inst := table1Instance(b, v)
		b.Run(fmt.Sprintf("FTSA/v=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("MCFTSA/v=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("FTBAR/v=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run("ftbar", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMatching (X1) compares MC-FTSA's greedy edge selection
// against the bottleneck-optimal matching of Section 4.2.
func BenchmarkAblationMatching(b *testing.B) {
	inst := benchInstance(b, 5, 20)
	for _, pol := range []string{"greedy", "bottleneck"} {
		b.Run(pol, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs,
					sched.RunOptions{Epsilon: 3, Policy: pol}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCommModels (X2) replays the same FTSA schedule under the
// paper's contention-free model, the one-port model and a 4-port bounded
// multi-port model (the conclusion's "more realistic communication models").
func BenchmarkAblationCommModels(b *testing.B) {
	inst := benchInstance(b, 6, 20)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	multi, err := sim.NewBoundedMultiPort(20, 4)
	if err != nil {
		b.Fatal(err)
	}
	models := []struct {
		name  string
		model sim.CommModel
	}{
		{"contention-free", sim.ContentionFree{}},
		{"one-port", sim.NewOnePort(20)},
		{"4-port", multi},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(s, sim.NoFailures(20), m.model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReliability (X3) measures the Monte-Carlo reliability estimator:
// sim.Evaluate under the exp scenario kind.
func BenchmarkReliability(b *testing.B) {
	inst := benchInstance(b, 7, 16)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sim.ScenarioSpec{Kind: "exp", Lambda: 0.5 / s.UpperBound()}.Generator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Evaluate(s, gen, 50, sim.EvalOptions{Seed: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutor measures the concurrent runtime: goroutine workers and
// channel links executing a paper-sized workload (X7: executor overhead).
func BenchmarkExecutor(b *testing.B) {
	inst := benchInstance(b, 10, 8)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	fns := make([]exec.Task, inst.Graph.NumTasks())
	for t := range fns {
		fns[t] = func(inputs []exec.Payload) (exec.Payload, error) {
			return exec.Payload{byte(len(inputs))}, nil
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(s, fns, exec.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI exercises the façade end to end, as a downstream user
// would (workload → schedule → crash simulation).
func BenchmarkPublicAPI(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		inst, err := ftsched.NewInstance(rng, ftsched.DefaultPaperConfig(1.0))
		if err != nil {
			b.Fatal(err)
		}
		s, err := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2})
		if err != nil {
			b.Fatal(err)
		}
		sc, err := ftsched.UniformCrashes(rng, 20, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ftsched.Simulate(s, sc); err != nil {
			b.Fatal(err)
		}
	}
}
