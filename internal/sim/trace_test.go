package sim

import (
	"bytes"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
)

// Filter returns the events of one kind.
func (tr *Trace) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range tr.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// buildChainSchedule returns the ε=1 FTSA schedule of the hand-computable
// two-task chain (costs 5 and 7, volume 10, two processors, unit delay).
func buildChainSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	g := dag.NewWithTasks("chain2", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := uniformPlatform(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{5, 5}, {7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", g, p, cm, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTraceRecordsFullExecution(t *testing.T) {
	inst := instance(t, 1, 6)
	const eps = 1
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	res, err := RunWithOptions(s, NoFailures(6), Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	v := inst.Graph.NumTasks()
	// Without failures every replica starts and finishes.
	starts := tr.Filter(EventStart)
	finishes := tr.Filter(EventFinish)
	if len(starts) != v*(eps+1) || len(finishes) != v*(eps+1) {
		t.Fatalf("starts=%d finishes=%d, want %d each", len(starts), len(finishes), v*(eps+1))
	}
	if len(tr.Filter(EventCrash)) != 0 || len(tr.Filter(EventSkip)) != 0 || len(tr.Filter(EventKilled)) != 0 {
		t.Error("unexpected failure events in a failure-free run")
	}
	// Events are time-sorted and the last finish equals... at least reaches
	// the reported latency.
	last := 0.0
	for i, e := range tr.Events {
		if i > 0 && e.Time < tr.Events[i-1].Time {
			t.Fatalf("trace not sorted at %d", i)
		}
		if e.Kind == EventFinish && e.Time > last {
			last = e.Time
		}
	}
	if last < res.Latency-1e-9 {
		t.Errorf("last finish %g before reported latency %g", last, res.Latency)
	}
}

func TestTraceRecordsCrashes(t *testing.T) {
	inst := instance(t, 2, 6)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := CrashAtZero(6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	if _, err := RunWithOptions(s, sc, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	crashes := tr.Filter(EventCrash)
	if len(crashes) != 2 {
		t.Fatalf("crash events = %d, want 2", len(crashes))
	}
	// Crash-at-zero events sort first.
	if tr.Events[0].Kind != EventCrash || tr.Events[0].Time != 0 {
		t.Errorf("first event %+v", tr.Events[0])
	}
	// No replica may start on a dead processor.
	for _, e := range tr.Filter(EventStart) {
		if e.Proc == 0 || e.Proc == 3 {
			t.Errorf("replica started on crashed processor: %+v", e)
		}
	}
}

func TestTraceMidExecutionKill(t *testing.T) {
	// Reuse the hand-computed chain: P0 crashes at 6, cutting task 1's copy.
	inst := instance(t, 3, 4)
	_ = inst
	tr := &Trace{}
	s := buildChainSchedule(t)
	sc := NoFailures(2)
	if err := sc.Crash(0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithOptions(s, sc, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	killed := tr.Filter(EventKilled)
	if len(killed) != 1 || killed[0].Task != 1 || killed[0].Proc != 0 {
		t.Errorf("killed events %+v", killed)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"crash   P0", "killed", "finish"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventStart, EventFinish, EventSkip, EventKilled, EventCrash}
	want := []string{"start", "finish", "skip", "killed", "crash"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("%d: %q", i, k.String())
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}
