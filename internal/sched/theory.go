package sched

import (
	"math"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// TheoreticalBounds collects machine-independent lower bounds on the
// achievable fault-free makespan of a problem instance, used to gauge how
// far a heuristic schedule is from optimal (no polynomial algorithm can
// close the gap exactly — the problem is NP-hard even without replication).
type TheoreticalBounds struct {
	// CriticalPath is the best-case length of the longest dependence chain:
	// every task on the chain at its fastest processor, all communications
	// free (co-location).
	CriticalPath float64
	// WorkBound is the total fastest-execution work divided by the number
	// of processors: even perfect load balance cannot beat it.
	WorkBound float64
	// Combined is max(CriticalPath, WorkBound).
	Combined float64
}

// ComputeTheoreticalBounds derives the bounds for a problem instance.
func ComputeTheoreticalBounds(g *dag.Graph, cm *platform.CostModel, p *platform.Platform) (*TheoreticalBounds, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	fastest := make([]float64, f.NumTasks())
	work := 0.0
	for t := range fastest {
		fastest[t] = cm.Min(dag.TaskID(t))
		work += fastest[t]
	}
	// The longest chain is the largest bottom level: costs are non-negative,
	// so an entry task's bottom level dominates every task below it.
	cp := 0.0
	for _, b := range f.BottomLevels(fastest, make([]float64, f.NumEdges()), nil) {
		cp = max(cp, b)
	}
	tb := &TheoreticalBounds{
		CriticalPath: cp,
		WorkBound:    work / float64(p.NumProcs()),
	}
	tb.Combined = math.Max(tb.CriticalPath, tb.WorkBound)
	return tb, nil
}

// QualityRatio returns the schedule's fault-free latency divided by the
// combined theoretical lower bound (>= 1; closer to 1 is better). The
// replication factor inflates the ratio for ε > 0 — compare schedules at
// equal ε.
func (s *Schedule) QualityRatio() (float64, error) {
	tb, err := ComputeTheoreticalBounds(s.Graph, s.Costs, s.Platform)
	if err != nil {
		return 0, err
	}
	if tb.Combined <= 0 {
		return 0, nil
	}
	return s.LowerBound() / tb.Combined, nil
}
