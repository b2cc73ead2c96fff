package sched

import (
	"fmt"
	"math"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// ArrivalWindow returns the earliest and latest possible arrival on proc of
// the data produced by the given replica set of a predecessor task:
//
//   - earliest: min over copies of FinishMin + V·d(copy proc, proc) — the
//     "first message wins" semantics of equation (1);
//   - latest: max over copies of FinishMax + V·d — the all-copies semantics
//     of equation (3).
//
// Intra-processor transfers have zero delay (d(P,P) = 0).
func ArrivalWindow(p *platform.Platform, srcReps []Replica, volume float64, proc platform.ProcID) (earliest, latest float64) {
	earliest = math.Inf(1)
	for _, sr := range srcReps {
		d := p.Delay(sr.Proc, proc)
		earliest = min(earliest, sr.FinishMin+volume*d)
		latest = max(latest, sr.FinishMax+volume*d)
	}
	return earliest, latest
}

// AddDuplicate appends an extra replica of an already-placed task (used by
// FTBAR's Minimize-Start-Time duplication). The copy index is assigned
// automatically.
func (s *Schedule) AddDuplicate(t dag.TaskID, r Replica) error {
	if s.replicas[t] == nil {
		return fmt.Errorf("%w: task %d", ErrNotScheduled, t)
	}
	if r.Task != t {
		return fmt.Errorf("sched: duplicate mislabeled (task=%d, want %d)", r.Task, t)
	}
	if !s.Platform.Valid(r.Proc) {
		return fmt.Errorf("sched: duplicate of task %d on invalid processor %d", t, r.Proc)
	}
	r.Copy = len(s.replicas[t])
	s.replicas[t] = append(s.replicas[t], r)
	return nil
}

// AvgBottomLevels computes the static bottom levels bℓ(t) of Section 4.1:
// node costs are the platform-average execution times E̅(t) and edge costs
// the average communication costs W̅(ti,tj) = V(ti,tj)·d̅.
//
// It runs on the graph's frozen CSR view (Graph.Freeze — memoized, so every
// scheduler, the replay engine and the tuner probing one instance share a
// single topological sort) with the costs materialized once into flat slices.
func AvgBottomLevels(g *dag.Graph, cm *platform.CostModel, p *platform.Platform) ([]float64, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	node, edge := AvgCosts(f, cm, p)
	return f.BottomLevels(node, edge, nil), nil
}

// AvgCosts materializes the paper's average cost model for a frozen graph:
// node[t] = E̅(t) and edge[i] = V(e_i)·d̅ indexed by flat edge ID — the cost
// slices Flat.BottomLevels and the incremental updater consume.
func AvgCosts(f *dag.Flat, cm *platform.CostModel, p *platform.Platform) (node, edge []float64) {
	meanD := p.MeanDelay()
	v := f.NumTasks()
	node = make([]float64, v)
	edge = make([]float64, f.NumEdges())
	for t := 0; t < v; t++ {
		node[t] = cm.Mean(dag.TaskID(t))
		lo := f.SuccEdgeLo(dag.TaskID(t))
		for i, vol := range f.SuccVolumes(dag.TaskID(t)) {
			edge[lo+int32(i)] = vol * meanD
		}
	}
	return node, edge
}

// ResolveBottomLevels returns bl when it was supplied (validating its
// length against the graph) and computes AvgBottomLevels otherwise — the
// shared prologue of every scheduler honoring RunOptions.BottomLevels.
func ResolveBottomLevels(g *dag.Graph, cm *platform.CostModel, p *platform.Platform, bl []float64) ([]float64, error) {
	if bl == nil {
		return AvgBottomLevels(g, cm, p)
	}
	if len(bl) != g.NumTasks() {
		return nil, fmt.Errorf("sched: %d bottom levels for %d tasks", len(bl), g.NumTasks())
	}
	return bl, nil
}

// Deadlines assigns the per-task deadlines of Section 4.3 for a target
// latency L, in reverse topological order:
//
//	d(ti) = L                                     if Γ+(ti) = ∅
//	d(ti) = min over tj in Γ+(ti) of
//	          d(tj) − E̅(tj) − W̅(ti,tj)           otherwise
//
// where E̅(tj) is the average execution time of tj on the ε+1 fastest
// processors and W̅ uses the average delay of the ε+1 fastest links.
func Deadlines(g *dag.Graph, cm *platform.CostModel, p *platform.Platform, epsilon int, latency float64) ([]float64, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	fastD := p.MeanDelayFastestLinks(epsilon + 1)
	// E̅ once per task, not once per edge into it.
	meanFast := make([]float64, f.NumTasks())
	for t := range meanFast {
		meanFast[t] = cm.MeanFastest(dag.TaskID(t), epsilon+1)
	}
	d := make([]float64, f.NumTasks())
	for _, t := range f.ReverseTopologicalOrder() {
		succs := f.SuccIDs(t)
		if len(succs) == 0 {
			d[t] = latency
			continue
		}
		best := math.Inf(1)
		vols := f.SuccVolumes(t)
		for i, s := range succs {
			v := d[s] - meanFast[s] - vols[i]*fastD
			if v < best {
				best = v
			}
		}
		d[t] = best
	}
	return d, nil
}
