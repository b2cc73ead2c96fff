package ftbar

import (
	"math/rand"
	"testing"

	_ "ftsched/internal/core"
	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

func instance(t *testing.T, seed int64, procs int) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 50
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestFTBARValidates(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, npf := range []int{0, 1, 2, 5} {
			inst := instance(t, seed, 20)
			s, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: npf})
			if err != nil {
				t.Fatalf("seed %d Npf=%d: %v", seed, npf, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d Npf=%d: Validate: %v", seed, npf, err)
			}
			if lb, ub := s.LowerBound(), s.UpperBound(); ub < lb-1e-9 {
				t.Fatalf("seed %d Npf=%d: bounds inverted (%g > %g)", seed, npf, lb, ub)
			}
			for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
				if got := len(s.Replicas(dag.TaskID(tsk))); got < npf+1 {
					t.Fatalf("seed %d Npf=%d: task %d has %d replicas", seed, npf, tsk, got)
				}
			}
		}
	}
}

func TestFTBARSurvivesAllCrashSets(t *testing.T) {
	inst := instance(t, 4, 6)
	const npf = 2
	s, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: npf})
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Platform.NumProcs()
	for mask := 0; mask < 1<<m; mask++ {
		var crashed []platform.ProcID
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				crashed = append(crashed, platform.ProcID(j))
			}
		}
		if len(crashed) > npf {
			continue
		}
		sc, err := sim.CrashAtZero(m, crashed...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(s, sc, nil); err != nil {
			t.Errorf("FTBAR failed under crash set %v: %v", crashed, err)
		}
	}
}

func TestFTBARDuplicationOnlyAddsReplicas(t *testing.T) {
	inst := instance(t, 7, 10)
	with, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	without, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2, Policy: "noduplication"})
	if err != nil {
		t.Fatal(err)
	}
	if err := without.Validate(); err != nil {
		t.Fatalf("no-duplication schedule invalid: %v", err)
	}
	countReplicas := func(s interface {
		Replicas(dag.TaskID) []interface{}
	}) int {
		return 0
	}
	_ = countReplicas
	totWith, totWithout := 0, 0
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		totWith += len(with.Replicas(dag.TaskID(tsk)))
		totWithout += len(without.Replicas(dag.TaskID(tsk)))
	}
	if totWithout != inst.Graph.NumTasks()*3 {
		t.Errorf("no-duplication run should have exactly Npf+1 replicas per task, got %d total", totWithout)
	}
	if totWith < totWithout {
		t.Errorf("duplication removed replicas: %d < %d", totWith, totWithout)
	}
}

func TestFTSAOutperformsFTBAROnAverage(t *testing.T) {
	// The paper's headline comparison: FTSA achieves a lower (better) lower
	// bound than FTBAR. Check on averages over a batch of random instances
	// (individual instances may go either way).
	var ftsaSum, ftbarSum float64
	const trials = 20
	for seed := int64(1); seed <= trials; seed++ {
		inst := instance(t, seed, 20)
		a, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		ftsaSum += a.LowerBound()
		ftbarSum += b.LowerBound()
	}
	if ftsaSum >= ftbarSum {
		t.Errorf("FTSA mean lower bound %g should beat FTBAR %g", ftsaSum/trials, ftbarSum/trials)
	}
}

func TestFTBARNpfTooLarge(t *testing.T) {
	inst := instance(t, 1, 4)
	if _, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 4}); err == nil {
		t.Fatal("want error for Npf+1 > m")
	}
}

func TestFTBARDeterministicWithoutRng(t *testing.T) {
	inst := instance(t, 9, 8)
	a, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.LowerBound() != b.LowerBound() || a.UpperBound() != b.UpperBound() {
		t.Errorf("non-deterministic: (%g,%g) vs (%g,%g)", a.LowerBound(), a.UpperBound(), b.LowerBound(), b.UpperBound())
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
