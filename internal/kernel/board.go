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
//   - ArrMin is the earliest-arrival row filled by Arrivals (predMin holds
//     one replicated predecessor's row while it is folded in);
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
	ArrMin             []float64
	predMin            []float64
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
	b.predMin = Grow(b.predMin, m)
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

// Arrivals fills ArrMin with, for every processor Pj, the earliest time
// (equation 1) the data of every predecessor of t can be available on Pj,
// given the replicas already placed in s. Selection reads nothing else: the
// pessimistic arrival of equation (3) matters only on the processors a
// scheduler ends up choosing, and ArrivalMaxOn computes it there.
func (b *Board) Arrivals(f *dag.Flat, p *platform.Platform, s *sched.Schedule, t dag.TaskID) {
	b.ArrivalsInto(b.ArrMin, f, p, s, t)
}

// ArrivalsInto is Arrivals writing the row into dst, one entry per
// processor, for callers that keep rows of their own (FTBAR's memo). It
// walks the frozen CSR ranges — the innermost loop of every list scheduler —
// so the caller freezes the graph once per run and shares the view.
//
// Per predecessor it makes one pass per replica over the contiguous delay row
// of the replica's processor: FinishMin + V·d, minimised over the replicas
// (the first one initialises the row, and a predecessor with a single replica
// needs no row at all), then maximised over the predecessors into dst. These
// are the additions of sched.ArrivalWindow per (predecessor, processor) in
// another loop order, folded by the built-in min and max (branch-free; see
// the package doc for why that is bit-equal to compare-and-assign), and min
// and max do not depend on order: the result is bit-equal to that fold.
func (b *Board) ArrivalsInto(dst []float64, f *dag.Flat, p *platform.Platform, s *sched.Schedule, t dag.TaskID) {
	// Resliced to one length so the loops below run without bounds checks.
	predMin := b.predMin[:len(dst)]
	clear(dst)
	vols := f.PredVolumes(t)
	for i, pt := range f.PredIDs(t) {
		v := vols[i]
		srcReps := s.Replicas(dag.TaskID(pt))
		switch len(srcReps) {
		case 0:
			// Nothing sends: the minimum over no replicas. HEFT gets here
			// when a zero-cost predecessor ties its successor's rank.
			for j := range dst {
				dst[j] = math.Inf(1)
			}
			continue
		case 1:
			sr := &srcReps[0]
			for j, d := range p.DelayRow(sr.Proc)[:len(dst)] {
				dst[j] = max(dst[j], sr.FinishMin+v*d)
			}
			continue
		}
		sr := &srcReps[0]
		for j, d := range p.DelayRow(sr.Proc)[:len(predMin)] {
			predMin[j] = sr.FinishMin + v*d
		}
		for c := 1; c < len(srcReps); c++ {
			sr := &srcReps[c]
			for j, d := range p.DelayRow(sr.Proc)[:len(predMin)] {
				predMin[j] = min(predMin[j], sr.FinishMin+v*d)
			}
		}
		for j, eMin := range predMin {
			dst[j] = max(dst[j], eMin)
		}
	}
}

// ArrivalMaxOn returns the latest time (equation 3) the data of every
// predecessor of t can be available on proc: FinishMax + V·d maximised over
// every replica of every predecessor, the sums of sched.ArrivalWindow's
// second result folded by the built-in max over the predecessors.
func (b *Board) ArrivalMaxOn(f *dag.Flat, p *platform.Platform, s *sched.Schedule, t dag.TaskID, proc platform.ProcID) float64 {
	latest := 0.0
	vols := f.PredVolumes(t)
	for i, pt := range f.PredIDs(t) {
		v := vols[i]
		srcReps := s.Replicas(dag.TaskID(pt))
		for c := range srcReps {
			sr := &srcReps[c]
			latest = max(latest, sr.FinishMax+v*p.Delay(sr.Proc, proc))
		}
	}
	return latest
}

// StartMin returns the earliest optimistic start of a task of duration dur
// on processor j whose inputs arrive at arr: max(arr, r(Pj)) in append mode,
// or the earliest fitting gap when insertion is enabled.
func (b *Board) StartMin(j int, arr, dur float64) float64 {
	if b.insertion {
		return b.Lines[j].EarliestFit(arr, dur)
	}
	return max(arr, b.ReadyMin[j])
}

// StartMax returns the earliest pessimistic start on processor j for inputs
// arriving (pessimistically) at arr. The pessimistic window is always
// append-only: under failures the gap structure of the optimistic timeline
// is not guaranteed, so insertion never applies here.
func (b *Board) StartMax(j int, arr float64) float64 {
	return max(arr, b.ReadyMax[j])
}

// Commit advances the board past the given replicas: ready times move to
// each replica's finish (monotonically — a gap-inserted replica finishing
// early never rewinds them), and, under insertion, the optimistic window is
// recorded in the processor's timeline.
func (b *Board) Commit(reps []sched.Replica) {
	for i := range reps {
		r := &reps[i]
		b.ReadyMin[r.Proc] = max(b.ReadyMin[r.Proc], r.FinishMin)
		b.ReadyMax[r.Proc] = max(b.ReadyMax[r.Proc], r.FinishMax)
		if b.insertion {
			b.Lines[r.Proc].Add(r.StartMin, r.FinishMin)
		}
	}
}
