package sched

import (
	"fmt"
	"slices"

	"ftsched/internal/dag"
)

// timeEps absorbs float rounding when comparing schedule times.
const timeEps = 1e-7

// Validate checks every structural and temporal invariant of a complete
// fault-tolerant schedule:
//
//   - every task placed, with at least ε+1 replicas on ε+1 *distinct*
//     processors (Proposition 4.1);
//   - the mapping order is a topological order of the DAG;
//   - per-processor executions do not overlap, in both the optimistic and
//     the pessimistic window;
//   - every replica starts no earlier than its data can arrive: under
//     PatternAll the earliest predecessor copy for the Min window and the
//     latest for the Max window (equations 1 and 3); under PatternMatched
//     the single matched source for both windows;
//   - under PatternMatched, each precedence edge carries a bijective
//     replica-to-replica matching that routes shared processors to
//     themselves (Proposition 4.3).
func (s *Schedule) Validate() error {
	if !s.Complete() {
		for t := range s.replicas {
			if s.replicas[t] == nil {
				return fmt.Errorf("%w: task %d", ErrIncomplete, t)
			}
		}
	}
	if !s.Graph.IsTopologicalOrder(s.mappingOrder) {
		// The mapping order includes each task once; it must respect
		// precedence because only free tasks are mapped.
		return fmt.Errorf("%w: mapping order is not topological", ErrPrecedence)
	}
	// One set of marks serves every task: indexed by processor for the
	// distinct-processor count, by predecessor copy for the matching check.
	width := s.Platform.NumProcs()
	for _, reps := range s.replicas {
		width = max(width, len(reps))
	}
	seen := make([]bool, width)
	for t := range s.replicas {
		if err := s.validateTask(dag.TaskID(t), seen); err != nil {
			return err
		}
	}
	if err := s.validateTimelines(); err != nil {
		return err
	}
	return nil
}

// validateTask checks one task's replicas and their arrivals. seen is
// Validate's scratch: at least as long as the platform is wide and as any
// task has copies, cleared here before each use.
func (s *Schedule) validateTask(t dag.TaskID, seen []bool) error {
	reps := s.replicas[t]
	if len(reps) < s.Epsilon+1 {
		return fmt.Errorf("%w: task %d has %d replicas, want >= %d", ErrReplicaCount, t, len(reps), s.Epsilon+1)
	}
	clear(seen)
	procs := 0
	for _, r := range reps {
		if !seen[r.Proc] {
			seen[r.Proc] = true
			procs++
		}
	}
	// Proposition 4.1: ε+1 pairwise distinct processors are required. The
	// base schedulers produce exactly ε+1 distinct ones; FTBAR duplication
	// may add extra copies on already-used processors, which is harmless as
	// long as ε+1 distinct processors execute the task.
	if procs < s.Epsilon+1 {
		return fmt.Errorf("%w: task %d uses %d distinct processors, want >= %d", ErrSpace, t, procs, s.Epsilon+1)
	}
	for _, r := range reps {
		e := s.Costs.Cost(t, r.Proc)
		if r.FinishMin < r.StartMin-timeEps || r.FinishMax < r.StartMax-timeEps {
			return fmt.Errorf("sched: task %d copy %d finishes before it starts", t, r.Copy)
		}
		if diff := r.FinishMin - r.StartMin - e; diff < -timeEps || diff > timeEps {
			return fmt.Errorf("sched: task %d copy %d Min window duration %g != cost %g", t, r.Copy, r.FinishMin-r.StartMin, e)
		}
		if diff := r.FinishMax - r.StartMax - e; diff < -timeEps || diff > timeEps {
			return fmt.Errorf("sched: task %d copy %d Max window duration %g != cost %g", t, r.Copy, r.FinishMax-r.StartMax, e)
		}
		if r.StartMin < -timeEps || r.StartMax < r.StartMin-timeEps {
			return fmt.Errorf("sched: task %d copy %d has invalid starts (min=%g max=%g)", t, r.Copy, r.StartMin, r.StartMax)
		}
	}
	return s.validateArrivals(t, seen)
}

func (s *Schedule) validateArrivals(t dag.TaskID, used []bool) error {
	preds := s.Graph.Preds(t)
	for predIdx, pe := range preds {
		srcReps := s.replicas[pe.To]
		if srcReps == nil {
			return fmt.Errorf("%w: predecessor %d of %d unplaced", ErrIncomplete, pe.To, t)
		}
		// Equation (3)'s "max over the ε+1 replicas" is defined over the
		// base replicas; duplicates appended later (FTBAR's Minimize-Start-
		// Time) only ever *add* optimistic arrival options and are excluded
		// from the pessimistic requirement — they may postdate the
		// successor's placement.
		baseReps := srcReps
		if len(baseReps) > s.Epsilon+1 {
			baseReps = baseReps[:s.Epsilon+1]
		}
		switch s.CommPattern {
		case PatternAll:
			for _, dr := range s.replicas[t] {
				// One pass over the copies: the window of the base replicas,
				// then the duplicates' optimistic arrivals folded into its
				// earliest end.
				earliest, latest := ArrivalWindow(s.Platform, baseReps, pe.Volume, dr.Proc)
				for _, sr := range srcReps[len(baseReps):] {
					earliest = min(earliest, sr.FinishMin+pe.Volume*s.Platform.Delay(sr.Proc, dr.Proc))
				}
				if dr.StartMin < earliest-timeEps {
					return fmt.Errorf("%w: task %d copy %d starts at %g before earliest arrival %g from pred %d",
						ErrPrecedence, t, dr.Copy, dr.StartMin, earliest, pe.To)
				}
				if dr.StartMax < latest-timeEps {
					return fmt.Errorf("%w: task %d copy %d Max start %g before latest arrival %g from pred %d",
						ErrPrecedence, t, dr.Copy, dr.StartMax, latest, pe.To)
				}
			}
		case PatternMatched:
			clear(used)
			for _, dr := range s.replicas[t] {
				k, err := s.MatchedSource(t, dr.Copy, predIdx)
				if err != nil {
					return err
				}
				if k < 0 || k >= len(srcReps) {
					return fmt.Errorf("%w: task %d copy %d pred %d matched to copy %d of %d",
						ErrMatching, t, dr.Copy, pe.To, k, len(srcReps))
				}
				if used[k] {
					return fmt.Errorf("%w: predecessor %d copy %d feeds two replicas of %d",
						ErrMatching, pe.To, k, t)
				}
				used[k] = true
				sr := srcReps[k]
				// Proposition 4.3: shared processors must self-match.
				if sr.Proc != dr.Proc {
					for _, other := range srcReps {
						if other.Proc == dr.Proc {
							return fmt.Errorf("%w: task %d copy %d on P%d must receive from co-located pred copy, got copy on P%d",
								ErrMatching, t, dr.Copy, dr.Proc, sr.Proc)
						}
					}
				}
				arrMin := sr.FinishMin + pe.Volume*s.Platform.Delay(sr.Proc, dr.Proc)
				arrMax := sr.FinishMax + pe.Volume*s.Platform.Delay(sr.Proc, dr.Proc)
				if dr.StartMin < arrMin-timeEps {
					return fmt.Errorf("%w: task %d copy %d starts at %g before matched arrival %g",
						ErrPrecedence, t, dr.Copy, dr.StartMin, arrMin)
				}
				if dr.StartMax < arrMax-timeEps {
					return fmt.Errorf("%w: task %d copy %d Max start %g before matched Max arrival %g",
						ErrPrecedence, t, dr.Copy, dr.StartMax, arrMax)
				}
			}
		}
	}
	return nil
}

func (s *Schedule) validateTimelines() error {
	type span struct {
		start, finish float64
		task          dag.TaskID
		copy          int
	}
	// One flat buffer bucketed by processor, filled once per window in
	// (mapping position, copy) order: spans[lo[p]:lo[p+1]] is what runs on
	// Pp. A processor's replicas mostly start in the order they were mapped,
	// so the sort below mostly finds its bucket already in order.
	m := s.Platform.NumProcs()
	lo := make([]int, m+1)
	for t := range s.replicas {
		for _, r := range s.replicas[t] {
			lo[r.Proc+1]++
		}
	}
	for p := 0; p < m; p++ {
		lo[p+1] += lo[p]
	}
	spans := make([]span, lo[m])
	next := make([]int, m)
	for pass, kind := range [...]string{"Min", "Max"} {
		copy(next, lo)
		for _, t := range s.mappingOrder {
			for _, r := range s.replicas[t] {
				sp := span{r.StartMin, r.FinishMin, t, r.Copy}
				if pass == 1 {
					sp.start, sp.finish = r.StartMax, r.FinishMax
				}
				spans[next[r.Proc]] = sp
				next[r.Proc]++
			}
		}
		for p := 0; p < m; p++ {
			ss := spans[lo[p]:lo[p+1]]
			slices.SortFunc(ss, func(a, b span) int {
				// Starts are finite: the plain comparisons order them as
				// cmp.Compare would, without its NaN cases.
				switch {
				case a.start < b.start:
					return -1
				case a.start > b.start:
					return 1
				}
				return 0
			})
			for i := 1; i < len(ss); i++ {
				if ss[i].start < ss[i-1].finish-timeEps {
					return fmt.Errorf("%w: P%d %s window: task %d copy %d [%g,%g) overlaps task %d copy %d [%g,%g)",
						ErrOverlap, p, kind,
						ss[i-1].task, ss[i-1].copy, ss[i-1].start, ss[i-1].finish,
						ss[i].task, ss[i].copy, ss[i].start, ss[i].finish)
				}
			}
		}
	}
	return nil
}
