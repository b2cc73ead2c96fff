package core

import (
	"errors"
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// FTSAIns must satisfy every schedule invariant FTSA does — including
// non-overlap of the pessimistic windows, which stay append-only while the
// optimistic windows fill timeline gaps — across instances and ε values.
func TestFTSAInsValid(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		inst, err := workload.NewInstance(rand.New(rand.NewSource(seed)), workload.DefaultPaperConfig(1.0))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []int{0, 1, 2, 5} {
			s, err := ftsaIns(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
			if err != nil {
				t.Fatalf("seed %d ε=%d: %v", seed, eps, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d ε=%d: invalid schedule: %v", seed, eps, err)
			}
			if s.Algorithm != "FTSA-ins" {
				t.Fatalf("algorithm = %q", s.Algorithm)
			}
			if s.UpperBound() < s.LowerBound()-1e-9 {
				t.Fatalf("seed %d ε=%d: upper bound %g below lower bound %g",
					seed, eps, s.UpperBound(), s.LowerBound())
			}
		}
	}
}

// Across a batch of instances, filling gaps must pay off: the summed
// fault-free makespan of ftsa-ins must beat plain FTSA's (a single instance
// can go either way, since an inserted replica perturbs every later greedy
// choice).
func TestFTSAInsImprovesInAggregate(t *testing.T) {
	var ins, plain float64
	for seed := int64(1); seed <= 10; seed++ {
		inst, err := workload.NewInstance(rand.New(rand.NewSource(seed)), workload.DefaultPaperConfig(1.0))
		if err != nil {
			t.Fatal(err)
		}
		si, err := ftsaIns(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := ftsa(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		ins += si.LowerBound()
		plain += sp.LowerBound()
	}
	if ins >= plain {
		t.Errorf("ftsa-ins total lower bound %g not better than ftsa %g", ins, plain)
	}
}

// The deadline-checked path is shared with FTSA through commit; an
// infeasible latency must fail with ErrDeadline, and a generous one succeed.
func TestFTSAInsDeadlines(t *testing.T) {
	inst, err := workload.NewInstance(rand.New(rand.NewSource(3)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := ftsaIns(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(latency float64) error {
		_, err := ftsaIns(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1, Latency: latency})
		return err
	}
	if err := mk(base.UpperBound() * 2); err != nil {
		t.Errorf("generous latency failed: %v", err)
	}
	if err := mk(base.LowerBound() / 4); !errors.Is(err, ErrDeadline) {
		t.Errorf("infeasible latency: err = %v, want ErrDeadline", err)
	}
}
