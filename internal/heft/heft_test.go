package heft

import (
	"math/rand"
	"testing"

	_ "ftsched/internal/core"
	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

func instance(t *testing.T, seed int64, procs int) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 40, 60
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestHEFTValidates(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst := instance(t, seed, 10)
		s, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: Validate: %v", seed, err)
		}
		if s.Epsilon != 0 {
			t.Errorf("ε = %d", s.Epsilon)
		}
		if s.LowerBound() != s.UpperBound() {
			t.Errorf("seed %d: unreplicated bounds differ", seed)
		}
		for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
			if got := len(s.Replicas(dag.TaskID(tsk))); got != 1 {
				t.Fatalf("task %d has %d replicas", tsk, got)
			}
		}
	}
}

func TestHEFTChainIsSequential(t *testing.T) {
	// A chain with heavy communication serializes on one processor: latency
	// equals the sum of the fastest execution times.
	g, err := workload.Chain(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := uniformPlatform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{
		{5, 9, 9}, {5, 9, 9}, {5, 9, 9}, {5, 9, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule(g, p, cm, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lb := s.LowerBound(); lb != 20 {
		t.Errorf("chain latency = %g, want 20", lb)
	}
}

func TestHEFTInsertionHelpsOnAverage(t *testing.T) {
	var with, without float64
	const trials = 25
	for seed := int64(1); seed <= trials; seed++ {
		inst := instance(t, seed, 8)
		a, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Policy: "noinsertion"})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("no-insertion invalid: %v", err)
		}
		with += a.LowerBound()
		without += b.LowerBound()
	}
	// Insertion can only reuse idle gaps; over a batch it must not lose.
	if with > without*1.01 {
		t.Errorf("insertion mean %.1f worse than append-only %.1f", with/trials, without/trials)
	}
}

func TestHEFTComparableToFaultFreeFTSA(t *testing.T) {
	// FTSA with ε=0 is an EFT list scheduler like HEFT; over a batch their
	// makespans must be within 15% of each other (they differ only in
	// priority ordering and insertion).
	var heftSum, ftsaSum float64
	const trials = 20
	for seed := int64(1); seed <= trials; seed++ {
		inst := instance(t, seed, 10)
		h, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 0})
		if err != nil {
			t.Fatal(err)
		}
		heftSum += h.LowerBound()
		ftsaSum += f.LowerBound()
	}
	ratio := ftsaSum / heftSum
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("fault-free FTSA vs HEFT ratio %.3f outside [0.85,1.15]", ratio)
	}
}

func TestHEFTGapFilling(t *testing.T) {
	// Construct a schedule where insertion finds a gap: two independent
	// heavy tasks and one light task whose only fast processor is busy.
	// Task 2 depends on task 0; task 1 is independent and long. With
	// insertion, task 3 (light, ready at 0) slips into P0's idle gap.
	g := dag.NewWithTasks("gap", 4)
	g.MustAddEdge(0, 2, 100)
	p, err := uniformPlatform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{
		{10, 50},  // task 0: fast on P0
		{60, 12},  // task 1: fast on P1
		{10, 999}, // task 2: only sensible on P0
		{5, 999},  // task 3: only sensible on P0
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule(g, p, cm, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ni, err := schedule(g, p, cm, sched.RunOptions{Policy: "noinsertion"})
	if err != nil {
		t.Fatal(err)
	}
	if s.LowerBound() > ni.LowerBound() {
		t.Errorf("insertion %g worse than append %g", s.LowerBound(), ni.LowerBound())
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
