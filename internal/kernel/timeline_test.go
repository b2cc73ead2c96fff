package kernel

import (
	"math/rand"
	"testing"

	"ftsched/internal/sched"
)

// Unit tests for the insertion-slot search, the mechanism distinguishing
// insertion-based placement (HEFT, ftsa-ins) from plain append-only EFT
// scheduling.

func line(slots ...Slot) *Timeline {
	var tl Timeline
	for _, s := range slots {
		tl.Add(s.Start, s.Finish)
	}
	return &tl
}

func TestEarliestFitEmpty(t *testing.T) {
	var tl Timeline
	if got := tl.EarliestFit(7, 3); got != 7 {
		t.Errorf("empty timeline: %g, want 7", got)
	}
}

func TestEarliestFitGapBeforeFirst(t *testing.T) {
	tl := line(Slot{10, 20})
	if got := tl.EarliestFit(0, 5); got != 0 {
		t.Errorf("leading gap: %g, want 0", got)
	}
	// Task too long for the leading gap: goes after the last slot.
	if got := tl.EarliestFit(0, 15); got != 20 {
		t.Errorf("oversized task: %g, want 20", got)
	}
}

func TestEarliestFitMiddleGap(t *testing.T) {
	tl := line(Slot{0, 10}, Slot{20, 30}, Slot{50, 60})
	// Fits in [10,20).
	if got := tl.EarliestFit(5, 8); got != 10 {
		t.Errorf("middle gap: %g, want 10", got)
	}
	// Ready inside the gap.
	if got := tl.EarliestFit(12, 8); got != 12 {
		t.Errorf("ready inside gap: %g, want 12", got)
	}
	// Too long for [10,20) but fits [30,50).
	if got := tl.EarliestFit(5, 15); got != 30 {
		t.Errorf("second gap: %g, want 30", got)
	}
	// Fits nowhere: appended after 60.
	if got := tl.EarliestFit(5, 25); got != 60 {
		t.Errorf("append: %g, want 60", got)
	}
}

func TestAppendModeIgnoresGaps(t *testing.T) {
	// An append-only board (insertion=false) places after the ready time,
	// never in a gap: commit [0,10) and [20,30), then ask for a start that
	// would fit the free [10,20) window.
	b := NewBoard(1, false)
	defer b.Release()
	b.Commit([]sched.Replica{{Proc: 0, StartMin: 0, FinishMin: 10, StartMax: 0, FinishMax: 10}})
	b.Commit([]sched.Replica{{Proc: 0, StartMin: 20, FinishMin: 30, StartMax: 20, FinishMax: 30}})
	if got := b.StartMin(0, 0, 5); got != 30 {
		t.Errorf("append-only: %g, want 30", got)
	}
	if got := b.StartMin(0, 45, 5); got != 45 {
		t.Errorf("append-only late ready: %g, want 45", got)
	}
}

func TestAddKeepsOrder(t *testing.T) {
	var tl Timeline
	for _, s := range []Slot{{20, 30}, {0, 10}, {40, 50}, {10, 20}} {
		tl.Add(s.Start, s.Finish)
	}
	for i := 1; i < len(tl.slots); i++ {
		if tl.slots[i].Start < tl.slots[i-1].Start {
			t.Fatalf("slots out of order: %v", tl.slots)
		}
	}
	if tl.Len() != 4 {
		t.Fatalf("len = %d", tl.Len())
	}
	tl.Reset()
	if tl.Len() != 0 {
		t.Fatalf("len after reset = %d", tl.Len())
	}
}

// earliestFitLinear is EarliestFit as a walk over every gap from the first:
// the reference the bisecting search must agree with.
func earliestFitLinear(busy []Slot, ready, dur float64) float64 {
	if len(busy) == 0 || ready+dur <= busy[0].Start {
		return ready
	}
	for i := 0; i+1 < len(busy); i++ {
		gapStart := max(ready, busy[i].Finish)
		if gapStart+dur <= busy[i+1].Start {
			return gapStart
		}
	}
	return max(ready, busy[len(busy)-1].Finish)
}

// TestEarliestFitMatchesLinearScan compares the bisecting search with the
// linear walk, bit for bit, on random sorted timelines: touching slots,
// zero-length slots and tasks, ready times on slot boundaries, and
// fractional times whose sums round.
func TestEarliestFitMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(4))
		}
		return rng.Float64() * 3
	}
	for trial := 0; trial < 20000; trial++ {
		var tl Timeline
		at := draw()
		for n := rng.Intn(12); n > 0; n-- {
			start := at + draw()*float64(rng.Intn(2)) // touching when the gap draws 0
			at = start + draw()                       // zero-length when the length draws 0
			tl.Add(start, at)
		}
		for q := 0; q < 8; q++ {
			ready, dur := draw()*4, draw()
			if q%2 == 1 && tl.Len() > 0 { // a ready time on a slot boundary
				s := tl.slots[rng.Intn(tl.Len())]
				ready = []float64{s.Start, s.Finish}[rng.Intn(2)]
			}
			got, want := tl.EarliestFit(ready, dur), earliestFitLinear(tl.slots, ready, dur)
			if got != want {
				t.Fatalf("slots %v ready %g dur %g: EarliestFit %g, linear walk %g", tl.slots, ready, dur, got, want)
			}
		}
	}
}
