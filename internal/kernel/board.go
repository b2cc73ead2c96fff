package kernel

import (
	"math"
	"sync"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// Board is the per-processor placement state of one scheduling run:
//
//   - ReadyMin/ReadyMax are r(Pj), the optimistic and pessimistic times at
//     which each processor next becomes free (the append-only view);
//   - ArrMin/ArrMax are the arrival-window scratch filled by Arrivals
//     (predMin/predMax hold one predecessor's window while it is folded in);
//   - Lines, present only when the board was created with insertion enabled,
//     holds one busy Timeline per processor for gap-aware slot search.
//
// Boards come from a sync.Pool: a campaign scheduling thousands of instances
// back to back reuses the same per-processor slices instead of allocating
// them once per run. The schedule handed back to callers never aliases board
// storage (sched.Place copies replicas), so releasing a board after a run —
// successful or not — is always safe.
type Board struct {
	ReadyMin, ReadyMax []float64
	ArrMin, ArrMax     []float64
	predMin, predMax   []float64
	// Lines holds one busy timeline per processor. It is always backed by
	// pooled storage (so a mixed sweep interleaving append-only and
	// insertion runs on one pool never regrows the slot slices), but it is
	// only consulted — by StartMin's gap search and Commit's slot
	// recording — when the board was created with insertion enabled.
	Lines []Timeline

	insertion bool
}

var boardPool = sync.Pool{New: func() any { return new(Board) }}

// NewBoard returns a zeroed board for m processors, reusing pooled storage.
// With insertion enabled, StartMin searches inter-slot gaps of the
// per-processor timelines instead of appending after the ready time.
func NewBoard(m int, insertion bool) *Board {
	b := boardPool.Get().(*Board)
	b.ReadyMin = GrowZero(b.ReadyMin, m)
	b.ReadyMax = GrowZero(b.ReadyMax, m)
	b.ArrMin = GrowZero(b.ArrMin, m)
	b.ArrMax = GrowZero(b.ArrMax, m)
	b.predMin = Grow(b.predMin, m)
	b.predMax = Grow(b.predMax, m)
	b.insertion = insertion
	b.Lines = Grow(b.Lines, m)
	for j := range b.Lines {
		b.Lines[j].Reset()
	}
	return b
}

// Release returns the board's storage to the pool. The board must not be
// used afterwards.
func (b *Board) Release() {
	if b == nil {
		return
	}
	boardPool.Put(b)
}

// Arrivals fills ArrMin/ArrMax with, for every processor Pj, the earliest
// (equation 1) and latest (equation 3) time the data of every predecessor of
// t can be available on Pj, given the replicas already placed in s. It walks
// the frozen CSR ranges — the innermost loop of every list scheduler — so
// the caller freezes the graph once per run and shares the view.
//
// Per predecessor it makes one pass per replica over the contiguous delay row
// of the replica's processor, folding FinishMin + V·d (min over replicas) and
// FinishMax + V·d (max over replicas) into predMin/predMax, then folds those
// into ArrMin/ArrMax. These are the additions and comparisons of
// sched.ArrivalWindow per (predecessor, processor) in another loop order, and
// min and max do not depend on order: the result is bit-equal to that fold.
func (b *Board) Arrivals(f *dag.Flat, p *platform.Platform, s *sched.Schedule, t dag.TaskID) {
	// All five slices are resliced to one length so the loops below run
	// without bounds checks.
	arrMin, arrMax := b.ArrMin, b.ArrMax[:len(b.ArrMin)]
	predMin, predMax := b.predMin[:len(arrMin)], b.predMax[:len(arrMin)]
	clear(arrMin)
	clear(arrMax)
	vols := f.PredVolumes(t)
	for i, pt := range f.PredIDs(t) {
		v := vols[i]
		for j := range predMin {
			predMin[j], predMax[j] = math.Inf(1), 0
		}
		srcReps := s.Replicas(dag.TaskID(pt))
		for c := range srcReps {
			sr := &srcReps[c]
			row := p.DelayRow(sr.Proc)[:len(predMin)]
			for j, d := range row {
				if a := sr.FinishMin + v*d; a < predMin[j] {
					predMin[j] = a
				}
				if a := sr.FinishMax + v*d; a > predMax[j] {
					predMax[j] = a
				}
			}
		}
		for j, eMin := range predMin {
			if eMin > arrMin[j] {
				arrMin[j] = eMin
			}
			if eMax := predMax[j]; eMax > arrMax[j] {
				arrMax[j] = eMax
			}
		}
	}
}

// StartMin returns the earliest optimistic start of a task of duration dur
// on processor j whose inputs arrive at arr: max(arr, r(Pj)) in append mode,
// or the earliest fitting gap when insertion is enabled.
func (b *Board) StartMin(j int, arr, dur float64) float64 {
	if b.insertion {
		return b.Lines[j].EarliestFit(arr, dur)
	}
	if r := b.ReadyMin[j]; r > arr {
		return r
	}
	return arr
}

// StartMax returns the earliest pessimistic start on processor j for inputs
// arriving (pessimistically) at arr. The pessimistic window is always
// append-only: under failures the gap structure of the optimistic timeline
// is not guaranteed, so insertion never applies here.
func (b *Board) StartMax(j int, arr float64) float64 {
	if r := b.ReadyMax[j]; r > arr {
		return r
	}
	return arr
}

// Commit advances the board past the given replicas: ready times move to
// each replica's finish (monotonically — a gap-inserted replica finishing
// early never rewinds them), and, under insertion, the optimistic window is
// recorded in the processor's timeline.
func (b *Board) Commit(reps []sched.Replica) {
	for i := range reps {
		r := &reps[i]
		if r.FinishMin > b.ReadyMin[r.Proc] {
			b.ReadyMin[r.Proc] = r.FinishMin
		}
		if r.FinishMax > b.ReadyMax[r.Proc] {
			b.ReadyMax[r.Proc] = r.FinishMax
		}
		if b.insertion {
			b.Lines[r.Proc].Add(r.StartMin, r.FinishMin)
		}
	}
}
