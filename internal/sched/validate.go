package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	for t := range s.replicas {
		if s.replicas[t] == nil {
			return fmt.Errorf("%w: task %d", ErrIncomplete, t)
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
	return s.validateTimelines()
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

// procOrders recycles validateTimelines' processor order: a Replica holds
// no pointers, so a pooled buffer keeps nothing of the schedule alive, and
// an error copies the replicas it names.
var procOrders sync.Pool

type procOrderBuf struct {
	order []Replica
	lo    []int
}

// validateTimelines checks that no two executions overlap on a processor.
// The optimistic windows are checked in ProcOrder, the order the processor
// runs them. The pessimistic ones are sorted by their own start: ftsa-ins
// inserts a replica into a gap of the optimistic timeline but still appends
// its pessimistic window, so those need not follow ProcOrder.
func (s *Schedule) validateTimelines() error {
	buf, _ := procOrders.Get().(*procOrderBuf)
	if buf == nil {
		buf = new(procOrderBuf)
	}
	defer procOrders.Put(buf)
	buf.order, buf.lo = s.procOrderInto(buf.order, buf.lo)
	order, lo := buf.order, buf.lo
	for pass, kind := range [...]string{"Min", "Max"} {
		pessimistic := pass == 1
		for p := 0; p+1 < len(lo); p++ {
			ss := order[lo[p]:lo[p+1]]
			if pessimistic {
				slices.SortFunc(ss, func(a, b Replica) int { return cmp.Compare(a.StartMax, b.StartMax) })
			}
			for i := 1; i < len(ss); i++ {
				prevStart, prevFinish := ss[i-1].window(pessimistic)
				start, finish := ss[i].window(pessimistic)
				if start < prevFinish-timeEps {
					return fmt.Errorf("%w: P%d %s window: task %d copy %d [%g,%g) overlaps task %d copy %d [%g,%g)",
						ErrOverlap, p, kind,
						ss[i-1].Task, ss[i-1].Copy, prevStart, prevFinish,
						ss[i].Task, ss[i].Copy, start, finish)
				}
			}
		}
	}
	return nil
}
