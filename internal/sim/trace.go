package sim

import (
	"fmt"
	"io"
	"sort"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// EventKind classifies execution-trace events.
type EventKind int

const (
	// EventStart: a replica began executing.
	EventStart EventKind = iota
	// EventFinish: a replica completed and its outputs were sent.
	EventFinish
	// EventSkip: a replica was skipped — its inputs can never arrive.
	EventSkip
	// EventKilled: a replica's execution was cut by its processor's crash.
	EventKilled
	// EventCrash: a processor failed.
	EventCrash
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventFinish:
		return "finish"
	case EventSkip:
		return "skip"
	case EventKilled:
		return "killed"
	case EventCrash:
		return "crash"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of an execution trace.
type Event struct {
	Time float64
	Kind EventKind
	Task dag.TaskID // -1 for EventCrash
	Copy int
	Proc platform.ProcID
}

// Trace is a time-ordered execution log produced by RunTraced.
type Trace struct {
	Events []Event
}

// add appends an event (sorted at the end of the run).
func (tr *Trace) add(e Event) { tr.Events = append(tr.Events, e) }

// sortByTime orders events by time; at equal times crashes come first (a
// crash at t prevents starts at t), then finishes, kills, skips, starts.
func (tr *Trace) sortByTime() {
	rank := func(k EventKind) int {
		switch k {
		case EventCrash:
			return 0
		case EventFinish:
			return 1
		case EventKilled:
			return 2
		case EventSkip:
			return 3
		default: // EventStart
			return 4
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		if tr.Events[i].Time != tr.Events[j].Time {
			return tr.Events[i].Time < tr.Events[j].Time
		}
		if ri, rj := rank(tr.Events[i].Kind), rank(tr.Events[j].Kind); ri != rj {
			return ri < rj
		}
		return tr.Events[i].Task < tr.Events[j].Task
	})
}

// Write renders the trace, one line per event.
func (tr *Trace) Write(w io.Writer) error {
	for _, e := range tr.Events {
		var err error
		switch e.Kind {
		case EventCrash:
			_, err = fmt.Fprintf(w, "%10.3f  crash   P%d\n", e.Time, e.Proc)
		default:
			_, err = fmt.Fprintf(w, "%10.3f  %-7s task %d copy %d on P%d\n", e.Time, e.Kind, e.Task, e.Copy, e.Proc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
