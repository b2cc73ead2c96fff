package heft

import (
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// The slot-search mechanics moved to internal/kernel (Timeline), which has
// its own unit tests; what remains HEFT's responsibility is that the
// insertion policy is actually wired through: both modes must produce valid
// schedules, and across a batch of instances insertion must win in
// aggregate (a single instance can go either way — filling a gap perturbs
// every later greedy choice).

func TestInsertionHelpsInAggregate(t *testing.T) {
	var insTotal, appTotal float64
	for seed := int64(1); seed <= 8; seed++ {
		inst, err := workload.NewInstance(rand.New(rand.NewSource(seed)), workload.DefaultPaperConfig(1.0))
		if err != nil {
			t.Fatal(err)
		}
		ins, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		app, err := schedule(inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Policy: "noinsertion"})
		if err != nil {
			t.Fatalf("seed %d (no insertion): %v", seed, err)
		}
		for _, s := range []*struct {
			name string
			err  error
		}{{"insertion", ins.Validate()}, {"append-only", app.Validate()}} {
			if s.err != nil {
				t.Fatalf("seed %d: %s schedule invalid: %v", seed, s.name, s.err)
			}
		}
		insTotal += ins.LowerBound()
		appTotal += app.LowerBound()
	}
	if insTotal >= appTotal {
		t.Errorf("insertion total makespan %g not better than append-only %g", insTotal, appTotal)
	}
}
