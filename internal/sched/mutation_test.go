package sched_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// Mutation testing for Validate: take a known-good schedule, apply each
// class of corruption through the persistence layer (the only mutable view
// of a foreign schedule), and require the validator to reject it. This
// guards the guards — a validator that silently passes corrupt schedules
// would defeat every other test that relies on it.

// mutate round-trips the schedule through its JSON form with a corruption
// applied to the decoded replicas, then reloads it.
func mutate(t *testing.T, inst *workload.Instance, s *sched.Schedule, corrupt func(rep []sched.Replica, tsk dag.TaskID) []sched.Replica) error {
	t.Helper()
	rebuilt, err := sched.New(inst.Graph, inst.Platform, inst.Costs, s.Epsilon, s.CommPattern, s.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tsk := range s.MappingOrder() {
		reps := append([]sched.Replica(nil), s.Replicas(tsk)...)
		reps = corrupt(reps, tsk)
		for c := range reps {
			reps[c].Copy = c
			reps[c].Task = tsk
		}
		if err := rebuilt.Place(tsk, reps); err != nil {
			return err
		}
	}
	return rebuilt.Validate()
}

func TestValidateCatchesMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: the identity mutation passes.
	if err := mutate(t, inst, s, func(r []sched.Replica, _ dag.TaskID) []sched.Replica { return r }); err != nil {
		t.Fatalf("identity mutation rejected: %v", err)
	}

	// Pick a mid-graph task with predecessors for targeted corruption.
	var victim dag.TaskID = -1
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		if inst.Graph.InDegree(dag.TaskID(tsk)) > 0 {
			victim = dag.TaskID(tsk)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no task with predecessors")
	}

	mutations := []struct {
		name    string
		corrupt func(r []sched.Replica, tsk dag.TaskID) []sched.Replica
	}{
		{"colocate-replicas", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				r[1].Proc = r[0].Proc
			}
			return r
		}},
		{"start-before-arrival", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				e := r[0].FinishMin - r[0].StartMin
				r[0].StartMin = 0
				r[0].FinishMin = e
			}
			return r
		}},
		{"wrong-duration", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				r[0].FinishMin += 17
			}
			return r
		}},
		{"drop-replica", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				return r[:len(r)-1]
			}
			return r
		}},
		{"negative-start", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				r[0].StartMin = -5
				r[0].FinishMin = r[0].FinishMin - r[0].StartMin - 5
			}
			return r
		}},
		{"max-before-min", func(r []sched.Replica, tsk dag.TaskID) []sched.Replica {
			if tsk == victim {
				e := r[0].FinishMax - r[0].StartMax
				r[0].StartMax = r[0].StartMin - 1
				r[0].FinishMax = r[0].StartMax + e
			}
			return r
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			if err := mutate(t, inst, s, m.corrupt); err == nil {
				t.Errorf("mutation %q passed validation", m.name)
			}
		})
	}
}

func TestValidateCatchesMatchingMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 35
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate one matched source (break the bijection).
	rebuilt, err := sched.New(inst.Graph, inst.Platform, inst.Costs, 2, sched.PatternMatched, "mut")
	if err != nil {
		t.Fatal(err)
	}
	var victim dag.TaskID = -1
	for _, tsk := range s.MappingOrder() {
		if err := rebuilt.Place(tsk, append([]sched.Replica(nil), s.Replicas(tsk)...)); err != nil {
			t.Fatal(err)
		}
		src := make([][]int, len(s.Replicas(tsk)))
		for c := range src {
			src[c] = make([]int, inst.Graph.InDegree(tsk))
			for pi := range src[c] {
				k, err := s.MatchedSource(tsk, c, pi)
				if err != nil {
					t.Fatal(err)
				}
				src[c][pi] = k
			}
		}
		if victim < 0 && inst.Graph.InDegree(tsk) > 0 {
			victim = tsk
			src[1][0] = src[0][0] // two replicas share a source
		}
		if err := rebuilt.SetMatchedSources(tsk, src); err != nil {
			t.Fatal(err)
		}
	}
	if victim < 0 {
		t.Fatal("no task with predecessors")
	}
	if err := rebuilt.Validate(); err == nil {
		t.Error("broken matching bijection passed validation")
	}
}
