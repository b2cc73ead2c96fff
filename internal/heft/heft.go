package heft

import (
	"cmp"
	"fmt"
	"slices"

	"ftsched/internal/dag"
	"ftsched/internal/kernel"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// schedule runs HEFT and returns an ε=0 schedule. Placement goes through
// the shared kernel: per-processor busy timelines with insertion-based
// earliest-slot search, or append-only under policy "noinsertion" (an
// ablation that reduces HEFT to plain EFT list scheduling). The upward ranks
// are opt.BottomLevels when given.
func schedule(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	s, err := sched.New(g, p, cm, 0, sched.PatternAll, "HEFT")
	if err != nil {
		return nil, err
	}
	// Upward ranks: bottom levels with mean execution and communication
	// costs — identical averaging to the paper's bℓ.
	rank, err := sched.ResolveBottomLevels(g, cm, p, opt.BottomLevels)
	if err != nil {
		return nil, err
	}
	order := make([]dag.TaskID, g.NumTasks())
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	slices.SortStableFunc(order, func(a, b dag.TaskID) int {
		if rank[a] != rank[b] {
			return cmp.Compare(rank[b], rank[a])
		}
		return cmp.Compare(a, b)
	})

	m := p.NumProcs()
	b := kernel.NewBoard(m, opt.Policy != "noinsertion")
	defer b.Release()

	for _, t := range order {
		b.Arrivals(f, p, s, t)
		bestProc := platform.ProcID(-1)
		bestStart, bestFinish := 0.0, 0.0
		for j := 0; j < m; j++ {
			e := cm.Cost(t, platform.ProcID(j))
			start := b.StartMin(j, b.ArrMin[j], e)
			if bestProc < 0 || start+e < bestFinish {
				bestProc, bestStart, bestFinish = platform.ProcID(j), start, start+e
			}
		}
		if bestProc < 0 {
			return nil, fmt.Errorf("heft: no processor for task %d", t)
		}
		reps := []sched.Replica{{
			Task: t, Copy: 0, Proc: bestProc,
			StartMin: bestStart, FinishMin: bestFinish,
			StartMax: bestStart, FinishMax: bestFinish,
		}}
		if err := s.Place(t, reps); err != nil {
			return nil, err
		}
		b.Commit(reps)
	}
	if !s.Complete() {
		return nil, dag.ErrCycle
	}
	return s, nil
}
