package sched_test

// Persistence tests live in an external test package because they need the
// schedulers (internal/core, internal/ftbar), which import sched.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

func persistInstance(t *testing.T) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func roundTrip(t *testing.T, inst *workload.Instance, s *sched.Schedule) *sched.Schedule {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sched.ReadSchedule(&buf, inst.Graph, inst.Platform, inst.Costs)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func assertSame(t *testing.T, a, b *sched.Schedule) {
	t.Helper()
	if a.LowerBound() != b.LowerBound() || a.UpperBound() != b.UpperBound() {
		t.Fatalf("bounds differ: (%g,%g) vs (%g,%g)", a.LowerBound(), a.UpperBound(), b.LowerBound(), b.UpperBound())
	}
	if a.MessageCount() != b.MessageCount() {
		t.Fatalf("message counts differ: %d vs %d", a.MessageCount(), b.MessageCount())
	}
	for tsk := 0; tsk < a.Graph.NumTasks(); tsk++ {
		ra, rb := a.Replicas(dag.TaskID(tsk)), b.Replicas(dag.TaskID(tsk))
		if len(ra) != len(rb) {
			t.Fatalf("task %d replica counts differ", tsk)
		}
		for c := range ra {
			if ra[c] != rb[c] {
				t.Fatalf("task %d copy %d differs: %+v vs %+v", tsk, c, ra[c], rb[c])
			}
		}
	}
}

func TestScheduleRoundTripFTSA(t *testing.T) {
	inst := persistInstance(t)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, inst, s)
	assertSame(t, s, back)
	// Simulation of the reloaded schedule matches the original.
	sc, err := sim.CrashAtZero(8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sim.Run(s, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sim.Run(back, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Latency != rb.Latency {
		t.Errorf("simulated latencies differ: %g vs %g", ra.Latency, rb.Latency)
	}
}

func TestScheduleRoundTripMCFTSA(t *testing.T) {
	inst := persistInstance(t)
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, inst, s)
	assertSame(t, s, back)
	// Matched sources must survive persistence.
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		tid := dag.TaskID(tsk)
		for predIdx := range inst.Graph.Preds(tid) {
			for c := 0; c < 3; c++ {
				ka, err := s.MatchedSource(tid, c, predIdx)
				if err != nil {
					t.Fatal(err)
				}
				kb, err := back.MatchedSource(tid, c, predIdx)
				if err != nil {
					t.Fatal(err)
				}
				if ka != kb {
					t.Fatalf("matched source differs at task %d copy %d pred %d", tsk, c, predIdx)
				}
			}
		}
	}
}

func TestScheduleRoundTripFTBARWithDuplicates(t *testing.T) {
	inst := persistInstance(t)
	s, err := sched.Run("ftbar", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, inst, s)
	assertSame(t, s, back)
}

func TestReadScheduleRejectsWrongInstance(t *testing.T) {
	inst := persistInstance(t)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Load against a different instance: validation must fail.
	rng := rand.New(rand.NewSource(99))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = 8
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	other, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.Graph.NumTasks() == inst.Graph.NumTasks() {
		// Same task count: loading should still fail validation (different
		// costs/delays make the recorded windows inconsistent).
		if _, err := sched.ReadSchedule(&buf, other.Graph, other.Platform, other.Costs); err == nil {
			t.Error("schedule accepted against a mismatched instance")
		}
	} else if _, err := sched.ReadSchedule(&buf, other.Graph, other.Platform, other.Costs); err == nil {
		t.Error("schedule accepted against a graph of different size")
	}
}

func TestReadScheduleRejectsGarbage(t *testing.T) {
	inst := persistInstance(t)
	if _, err := sched.ReadSchedule(strings.NewReader("not json"), inst.Graph, inst.Platform, inst.Costs); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := sched.ReadSchedule(strings.NewReader(`{"algorithm":"x","epsilon":1,"pattern":0,"mapping_order":[],"replicas":[]}`),
		inst.Graph, inst.Platform, inst.Costs); err == nil {
		t.Error("empty schedule accepted")
	}
}
