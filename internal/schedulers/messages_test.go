package schedulers

import (
	"math/rand"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// pairMessages is MessageCount's definition, pair by pair: under
// PatternAll every replica of a predecessor sends to every replica of its
// successor, and a transfer within one processor is free.
func pairMessages(s *sched.Schedule) int {
	n := 0
	for t := 0; t < s.Graph.NumTasks(); t++ {
		dst := s.Replicas(dag.TaskID(t))
		for _, pe := range s.Graph.Preds(dag.TaskID(t)) {
			for _, sr := range s.Replicas(pe.To) {
				for _, dr := range dst {
					if sr.Proc != dr.Proc {
						n++
					}
				}
			}
		}
	}
	return n
}

func TestMessageCountMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	duplicated := false
	for inst := 0; inst < 12; inst++ {
		cfg := workload.DefaultPaperConfig([]float64{0.2, 1, 5}[inst%3])
		cfg.Procs = []int{8, 20, 70}[inst%3] // 70 > 64: the pair-loop fallback
		cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 20, 60
		in, err := workload.NewInstance(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range sched.Registrations() {
			for _, eps := range []int{0, 1, 3} {
				if eps > 0 && !reg.FaultTolerant {
					continue
				}
				s, err := sched.Run(reg.Name(), in.Graph, in.Platform, in.Costs,
					sched.RunOptions{Epsilon: eps, Rng: rand.New(rand.NewSource(int64(inst)))})
				if err != nil {
					t.Fatal(err)
				}
				if s.CommPattern != sched.PatternAll {
					continue
				}
				for v := 0; v < s.Graph.NumTasks(); v++ {
					duplicated = duplicated || len(s.Replicas(dag.TaskID(v))) > eps+1
				}
				if got, want := s.MessageCount(), pairMessages(s); got != want {
					t.Errorf("%s ε=%d on %d procs: MessageCount %d, pair loop %d",
						reg.Name(), eps, cfg.Procs, got, want)
				}
			}
		}
	}
	if !duplicated {
		t.Error("no schedule carried a duplicate: FTBAR's extra replicas went untested")
	}
}

// TestMessageCountColocatedReplicas: a task with two replicas on one
// processor, which Validate refuses but Place accepts, is counted pair by
// pair.
func TestMessageCountColocatedReplicas(t *testing.T) {
	inst := goldenInstance(t)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sched.New(inst.Graph, inst.Platform, inst.Costs, 1, sched.PatternAll, "colocated")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.MappingOrder() {
		reps := append([]sched.Replica(nil), s.Replicas(v)...)
		if i%3 == 0 {
			reps[1].Proc = reps[0].Proc
		}
		if err := bad.Place(v, reps); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := bad.MessageCount(), pairMessages(bad); got != want {
		t.Fatalf("MessageCount %d, pair loop %d", got, want)
	}
}
