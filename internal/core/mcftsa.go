package core

import (
	"errors"
	"fmt"

	"ftsched/internal/bipartite"
	"ftsched/internal/dag"
	"ftsched/internal/kernel"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// ErrNoRobustMatching indicates the bipartite replica graph had no perfect
// matching. For graphs built per Section 4.2 this cannot happen (forced
// internal edges are vertex-disjoint and the residual graph is complete
// bipartite); seeing this error means the schedule state is corrupted.
var ErrNoRobustMatching = errors.New("core: no robust communication matching")

// mcftsa runs the Minimum-Communications variant of FTSA (Section 4.2).
// Processor selection is identical to FTSA (equation 1), but instead of
// every predecessor replica sending to every replica of the task, each
// precedence edge retains exactly ε+1 replica-to-replica communications,
// chosen as a perfect matching of the bipartite graph whose left nodes are
// the predecessor's replicas and right nodes the task's replicas:
//
//   - a left node whose processor also hosts a replica of the task has a
//     single outgoing edge, to that co-located replica (Proposition 4.3:
//     enforcing internal communications is what makes the set robust);
//   - any other left node connects to every right node;
//   - the weight of an edge is the time-step at which the task's replica
//     could finish if that predecessor replica were its only input:
//     max(F(t′,Pi) + W(t′,t), r(Pj)) + E(t,Pj).
//
// The schedule's replica windows are then computed against the single
// matched source per predecessor, which is why MC-FTSA's upper bound stays
// close to its lower bound.
//
// opt.Policy picks how each edge's matching is extracted (Section 4.2
// proposes both): "greedy" (the default, and the policy of the paper's
// experiments) takes internal communications first, then edges by
// non-decreasing weight; "bottleneck" minimizes the largest retained edge
// weight by binary search over the weights plus maximum bipartite matching.
func mcftsa(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	st, err := newState(g, p, cm, opt, sched.PatternMatched, "MC-FTSA", false)
	if err != nil {
		return nil, err
	}
	defer st.release()
	for st.free.Len() > 0 {
		t := st.pop()
		reps, err := st.placeBestEFT(t) // A(t) per equation (1), as in FTSA
		if err != nil {
			return nil, err
		}
		matched, err := st.matchCommunications(t, reps, opt.Policy == "bottleneck")
		if err != nil {
			return nil, err
		}
		recomputeMatchedWindows(st, t, reps, matched)
		if err := st.commit(t, reps, matched); err != nil {
			return nil, err
		}
	}
	return st.finish()
}

// matchCommunications builds, for every predecessor of t, the bipartite
// replica graph of Section 4.2 and extracts a robust perfect matching under
// the greedy or the bottleneck policy. The result is receiver-indexed:
// matched[copy][predIdx] = predecessor copy feeding that replica. The matrix
// is carved from the schedule's matched arena and every per-edge structure
// (the bipartite graph, the greedy order, the matching buffers) lives in the
// run's pooled scratch, so the steady-state matching loop does not allocate.
func (st *state) matchCommunications(t dag.TaskID, reps []sched.Replica, bottleneck bool) ([][]int, error) {
	k := len(reps)
	preds := st.f.PredIDs(t)
	vols := st.f.PredVolumes(t)
	matched, err := st.s.AllocMatched(k, len(preds))
	if err != nil {
		return nil, err
	}
	// Processor -> right (replica of t) index, for the forced internal edges.
	procCopy := kernel.Grow(st.procCopy, st.p.NumProcs())
	for j := range procCopy {
		procCopy[j] = -1
	}
	for c, r := range reps {
		procCopy[r.Proc] = int32(c)
	}
	st.procCopy = procCopy
	bg := &st.bg
	for predIdx, predRaw := range preds {
		pred := dag.TaskID(predRaw)
		vol := vols[predIdx]
		srcReps := st.s.Replicas(pred)
		bg.Reset(len(srcReps), k)
		keys := st.keys[:0]
		for i, sr := range srcReps {
			if c := procCopy[sr.Proc]; c >= 0 {
				// Case (i): Pi ∈ A(t) — single internal edge.
				w := st.edgeWeight(t, sr, vol, reps[c].Proc)
				if err := bg.AddEdge(i, int(c), w); err != nil {
					return nil, err
				}
				keys = append(keys, edgeKey{internal: true, w: w, edge: len(keys)})
				continue
			}
			// Case (ii): edges to every replica of t.
			for c := 0; c < k; c++ {
				w := st.edgeWeight(t, sr, vol, reps[c].Proc)
				if err := bg.AddEdge(i, c, w); err != nil {
					return nil, err
				}
				keys = append(keys, edgeKey{w: w, edge: len(keys)})
			}
		}
		st.keys = keys
		var m bipartite.Matching
		ok := false
		if !bottleneck {
			order := greedyOrder(keys, st.order)
			st.order = order
			st.usedR = kernel.Grow(st.usedR, k)
			m, ok = bg.GreedyOrderedMatchingInto(order, st.matchL, st.usedR)
			st.matchL = m
		}
		if !ok {
			// The greedy order cannot dead-end on these graphs; its fallback
			// is the exact method, which is also the bottleneck policy.
			if m, _, ok = bg.BottleneckPerfectMatching(); !ok {
				return nil, fmt.Errorf("%w: edge (%d,%d)", ErrNoRobustMatching, pred, t)
			}
		}
		// Invert: m maps left (src copy) -> right (dst copy).
		for i, c := range m {
			if c < 0 {
				return nil, fmt.Errorf("%w: unmatched source copy %d on edge (%d,%d)", ErrNoRobustMatching, i, pred, t)
			}
			matched[c][predIdx] = i
		}
	}
	return matched, nil
}

// edgeWeight is the bipartite edge weight of Section 4.2:
// max(F(t′,Pi) + W(t′,t), r(Pj)) + E(t,Pj), with W = 0 when Pi = Pj.
func (st *state) edgeWeight(t dag.TaskID, sr sched.Replica, volume float64, pj platform.ProcID) float64 {
	arr := sr.FinishMin + volume*st.p.Delay(sr.Proc, pj)
	return max(arr, st.board.ReadyMin[pj]) + st.cm.Cost(t, pj)
}

// edgeKey is what the greedy policy orders one edge of a replica graph by,
// collected as the edges are added: edge is the index AddEdge gave it.
type edgeKey struct {
	internal bool
	w        float64
	edge     int
}

func (k edgeKey) before(o edgeKey) bool {
	if k.internal != o.internal {
		return k.internal
	}
	return k.w < o.w
}

// greedyOrder returns edge indices with internal edges first, then the rest
// by non-decreasing weight (ties by insertion order for determinism),
// reusing buf's storage; keys holds one key per edge in insertion order and
// is sorted in place. The stable insertion sort produces the same
// permutation sort.SliceStable did (stable-sort output is unique for a given
// comparator) without allocating the closure or the reflection shim; the
// replica graphs have at most (ε+1)² edges, so quadratic is fine.
func greedyOrder(keys []edgeKey, buf []int) []int {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && k.before(keys[j-1]); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	order := kernel.Grow(buf, len(keys))
	for i := range keys {
		order[i] = keys[i].edge
	}
	return order
}

// recomputeMatchedWindows replaces the full-pattern windows of the selected
// replicas with the matched-pattern ones: each replica now waits for exactly
// one message per predecessor, so its optimistic window uses the matched
// source's optimistic finish and its pessimistic window the same source's
// pessimistic finish.
func recomputeMatchedWindows(st *state, t dag.TaskID, reps []sched.Replica, matched [][]int) {
	preds := st.f.PredIDs(t)
	vols := st.f.PredVolumes(t)
	for c := range reps {
		r := &reps[c]
		arrMin, arrMax := 0.0, 0.0
		for predIdx, predRaw := range preds {
			sr := st.s.Replicas(dag.TaskID(predRaw))[matched[c][predIdx]]
			d := st.p.Delay(sr.Proc, r.Proc)
			arrMin = max(arrMin, sr.FinishMin+vols[predIdx]*d)
			arrMax = max(arrMax, sr.FinishMax+vols[predIdx]*d)
		}
		e := st.cm.Cost(t, r.Proc)
		r.StartMin = max(arrMin, st.board.ReadyMin[r.Proc])
		r.FinishMin = r.StartMin + e
		r.StartMax = max(arrMax, st.board.ReadyMax[r.Proc])
		r.FinishMax = r.StartMax + e
	}
}
