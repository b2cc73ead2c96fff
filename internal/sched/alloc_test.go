package sched_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// perEdgeDeadlines is Section 4.3's recurrence as written, with E̅(tj)
// taken afresh on every edge from a sorted copy of tj's cost row.
func perEdgeDeadlines(g *dag.Graph, cm *platform.CostModel, p *platform.Platform, eps int, latency float64) []float64 {
	f, _ := g.Freeze()
	meanFastest := func(t dag.TaskID) float64 {
		row := make([]float64, p.NumProcs())
		for k := range row {
			row[k] = cm.Cost(t, platform.ProcID(k))
		}
		sort.Float64s(row)
		n := min(eps+1, len(row))
		sum := 0.0
		for _, c := range row[:n] {
			sum += c
		}
		return sum / float64(n)
	}
	fastD := p.MeanDelayFastestLinks(eps + 1)
	d := make([]float64, g.NumTasks())
	for _, t := range f.ReverseTopologicalOrder() {
		succs := f.SuccIDs(t)
		if len(succs) == 0 {
			d[t] = latency
			continue
		}
		d[t] = math.Inf(1)
		for i, s := range succs {
			d[t] = math.Min(d[t], d[s]-meanFastest(dag.TaskID(s))-f.SuccVolumes(t)[i]*fastD)
		}
	}
	return d
}

func TestDeadlinesBitIdenticalAndFlat(t *testing.T) {
	in, err := workload.NewInstance(rand.New(rand.NewSource(42)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	g, p, cm := in.Graph, in.Platform, in.Costs
	for _, eps := range []int{0, 1, 2, 5} {
		got, err := sched.Deadlines(g, cm, p, eps, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range perEdgeDeadlines(g, cm, p, eps, 1000) {
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("ε=%d: d(%d) = %v, the per-edge recurrence gives %v", eps, i, got[i], want)
			}
		}
	}
	// The deadline pass allocates the deadline and E̅ slices and the sorted
	// link delays, not one cost-row copy per edge.
	if n := testing.AllocsPerRun(5, func() {
		if _, err := sched.Deadlines(g, cm, p, 2, 1000); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("Deadlines makes %v allocations on a %d-edge graph, want at most 3", n, g.NumEdges())
	}
}

func TestBoundsAllocateNothing(t *testing.T) {
	in, err := workload.NewInstance(rand.New(rand.NewSource(42)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", in.Graph, in.Platform, in.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64
	if n := testing.AllocsPerRun(20, func() { lo, hi = s.LowerBound(), s.UpperBound() }); n != 0 {
		t.Fatalf("LowerBound + UpperBound: %v allocations per call, want 0", n)
	}
	if lo <= 0 || hi < lo {
		t.Fatalf("bounds %v, %v", lo, hi)
	}
}
