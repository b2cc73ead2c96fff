package kernel

import "sort"

// Slot is one busy interval on a processor, [Start, Finish).
type Slot struct{ Start, Finish float64 }

// Timeline is one processor's busy intervals, kept sorted by start time. The
// zero Timeline is empty and ready to use; Reset empties it again while
// keeping its storage, which is what lets Boards recycle timelines across
// runs.
type Timeline struct {
	slots []Slot
}

// Len returns the number of busy slots.
func (tl *Timeline) Len() int { return len(tl.slots) }

// Reset empties the timeline, keeping the backing storage.
func (tl *Timeline) Reset() { tl.slots = tl.slots[:0] }

// EarliestFit returns the earliest start >= ready at which a task of
// duration dur fits: the first inter-slot gap that can hold it, or after the
// last slot when no gap can. This is the insertion policy of HEFT and of the
// ftsa-ins registry variant.
//
// A gap ending at a slot that starts before ready+dur cannot hold the task:
// the gap starts at ready or later, and float addition is monotone. So the
// walk starts at the first slot starting at or after ready+dur, found by
// bisection, and returns what a walk from the first gap would.
func (tl *Timeline) EarliestFit(ready, dur float64) float64 {
	busy := tl.slots
	end := ready + dur
	lo, hi := 0, len(busy)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); busy[mid].Start < end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// The gap before the first slot, or an empty timeline.
		return ready
	}
	for i := lo - 1; i+1 < len(busy); i++ {
		gapStart := ready
		if busy[i].Finish > gapStart {
			gapStart = busy[i].Finish
		}
		if gapStart+dur <= busy[i+1].Start {
			return gapStart
		}
	}
	if last := busy[len(busy)-1].Finish; last > ready {
		return last
	}
	return ready
}

// Add records a busy interval, keeping the slot list sorted by start time.
func (tl *Timeline) Add(start, finish float64) {
	s := Slot{Start: start, Finish: finish}
	i := sort.Search(len(tl.slots), func(i int) bool { return tl.slots[i].Start >= s.Start })
	tl.slots = append(tl.slots, Slot{})
	copy(tl.slots[i+1:], tl.slots[i:])
	tl.slots[i] = s
}
