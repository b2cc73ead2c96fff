package sched

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// GanttOptions tunes the ASCII Gantt rendering.
type GanttOptions struct {
	// Width is the number of character columns representing the horizontal
	// time axis (default 100).
	Width int
	// Pessimistic renders the Max (equation 3) windows instead of the Min
	// (equation 1) windows.
	Pessimistic bool
}

// WriteGantt renders the schedule as an ASCII Gantt chart, one row per
// processor, each replica drawn as a span labeled with its task ID:
//
//	P0 |000000...111111      |
//	P1 |000000       22222222|
//
// Idle time is blank. Spans shorter than one column render as a single
// label character, so very fine schedules remain readable if approximate.
func (s *Schedule) WriteGantt(w io.Writer, opt GanttOptions) error {
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	horizon := s.LowerBound()
	if opt.Pessimistic {
		horizon = s.UpperBound()
	}
	// Schedules can exceed the exit-task bound on non-exit processors; use
	// the true maximum finish for scaling.
	for _, reps := range s.replicas {
		for _, r := range reps {
			_, f := r.window(opt.Pessimistic)
			horizon = max(horizon, f)
		}
	}
	if math.IsInf(horizon, 1) {
		return fmt.Errorf("sched: cannot render an incomplete schedule")
	}
	// A schedule whose replicas all finish at 0 has no time axis: every
	// span lands in column 0.
	scale := 0.0
	if horizon > 0 {
		scale = float64(width) / horizon
	}

	order, first := s.ProcOrder()
	if _, err := fmt.Fprintf(w, "%s schedule, ε=%d, horizon %.4g (1 column = %.4g)\n",
		s.Algorithm, s.Epsilon, horizon, horizon/float64(width)); err != nil {
		return err
	}
	for p := 0; p+1 < len(first); p++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, r := range order[first[p]:first[p+1]] {
			start, finish := r.window(opt.Pessimistic)
			lo := int(start * scale)
			hi := int(finish * scale)
			if hi >= width {
				hi = width - 1
			}
			if lo > hi {
				lo = hi
			}
			label := taskLabel(int(r.Task))
			for i := lo; i <= hi; i++ {
				row[i] = label
			}
		}
		if _, err := fmt.Fprintf(w, "P%-3d |%s|\n", p, string(row)); err != nil {
			return err
		}
	}
	return nil
}

// taskLabel maps a task ID to a printable character, cycling through
// digits, lower- and upper-case letters.
func taskLabel(t int) byte {
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return alphabet[t%len(alphabet)]
}

// Summary returns a one-paragraph textual description of the schedule.
func (s *Schedule) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d tasks ×%d replicas on %d processors (ε=%d, %s pattern); ",
		s.Algorithm, s.Graph.NumTasks(), s.Epsilon+1, s.Platform.NumProcs(), s.Epsilon, s.CommPattern)
	fmt.Fprintf(&b, "latency [%.4g, %.4g], %d inter-processor messages",
		s.LowerBound(), s.UpperBound(), s.MessageCount())
	return b.String()
}
