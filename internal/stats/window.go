package stats

import (
	"math"
	"sort"
)

// Window is a fixed-capacity sliding window of samples supporting exact
// quantile queries over the samples it holds, in memory bounded by its
// capacity whatever the stream's length. Once the window is full every new
// sample overwrites the oldest one.
//
// Like Accumulator, a Window is not synchronized; callers observing it from
// multiple goroutines must provide their own locking.
type Window struct {
	buf  []float64
	next int
	size int
}

// NewWindow creates a window keeping the most recent capacity samples
// (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add ingests one sample, evicting the oldest when the window is full.
func (w *Window) Add(x float64) {
	w.buf[w.next] = x
	w.next = (w.next + 1) % len(w.buf)
	if w.size < len(w.buf) {
		w.size++
	}
}

// Len returns the number of samples currently held (≤ capacity).
func (w *Window) Len() int { return w.size }

// Quantile returns the q-quantile (q in [0,1]) of the held samples by the
// nearest-rank method: Quantile(0) is the minimum, Quantile(1) the maximum,
// Quantile(0.5) the median. It returns 0 for an empty window.
func (w *Window) Quantile(q float64) float64 {
	if w.size == 0 {
		return 0
	}
	sorted := make([]float64, w.size)
	copy(sorted, w.buf[:w.size])
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[w.size-1]
	}
	// Nearest rank: ceil(q·n), converted to a zero-based index.
	rank := int(math.Ceil(q * float64(w.size)))
	if rank < 1 {
		rank = 1
	}
	if rank > w.size {
		rank = w.size
	}
	return sorted[rank-1]
}
