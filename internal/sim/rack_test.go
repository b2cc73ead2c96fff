package sim

import (
	"math/rand"
	"testing"

	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// TestRackFailureOnClusteredPlatform ties a clustered platform to the
// rack-failure scenario: ε sized to one full rack, schedules must
// survive the loss of any entire rack.
func TestRackFailureOnClusteredPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const racks, perRack = 4, 2
	// Racks of perRack processors: intra-rack delays in [0.1, 0.2], slower
	// inter-rack ones in [0.8, 1.0].
	m := racks * perRack
	delay := make([][]float64, m)
	for k := range delay {
		delay[k] = make([]float64, m)
	}
	for k := 0; k < m; k++ {
		for h := k + 1; h < m; h++ {
			lo, hi := 0.8, 1.0
			if k/perRack == h/perRack {
				lo, hi = 0.1, 0.2
			}
			delay[k][h] = lo + rng.Float64()*(hi-lo)
			delay[h][k] = delay[k][h]
		}
	}
	p, err := platform.NewFromDelays(delay)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.RandomDAG(rng, workload.RandomDAGConfig{
		MinTasks: 30, MaxTasks: 40,
		MinVolume: 50, MaxVolume: 150,
		ShapeFactor: 1.0, EdgeDensity: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewRandomCostModel(rng, g.NumTasks(), racks*perRack, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	// ε = perRack: losing one whole rack stays within the guarantee.
	s, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: perRack})
	if err != nil {
		t.Fatal(err)
	}
	for rack := 0; rack < racks; rack++ {
		sc, err := groupCrash(racks*perRack, perRack, rack, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, sc, nil)
		if err != nil {
			t.Fatalf("rack %d: %v", rack, err)
		}
		if res.Latency > s.UpperBound()+1e-7 {
			t.Errorf("rack %d: latency %g exceeds bound %g", rack, res.Latency, s.UpperBound())
		}
	}
	// Losing two racks (2·perRack > ε) may legitimately fail, but the
	// simulator must report it cleanly rather than hang or panic.
	sc, err := groupCrash(racks*perRack, 2*perRack, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, sc, nil); err == nil {
		t.Log("note: schedule survived a double-rack failure (placement got lucky)")
	}
}
