package sim

import (
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// BenchmarkReplay measures one warm replay over a frozen schedule: the
// replayer is built once (CSR freeze, pooled scratch) and each iteration
// replays a crash scenario. The steady-state loop — the unit Evaluate runs
// thousands of times per trial batch — must not allocate.
func BenchmarkReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 10
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := newReplayer(s, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.release()
	sc, err := CrashAtZero(10, 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, badExit, err := r.replay(sc, nil); err != nil {
			b.Fatal(err)
		} else if badExit >= 0 {
			b.Fatalf("exit task %d never completed", badExit)
		}
	}
}
