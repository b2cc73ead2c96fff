package sched

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

func ganttFixture(t *testing.T) *Schedule {
	t.Helper()
	g, p, cm := fixture(t)
	s, err := New(g, p, cm, 1, PatternAll, "hand")
	if err != nil {
		t.Fatal(err)
	}
	placePair(t, s)
	return s
}

func TestWriteGantt(t *testing.T) {
	s := ganttFixture(t)
	var buf bytes.Buffer
	if err := s.WriteGantt(&buf, GanttOptions{Width: 40}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + one row per processor.
	if len(lines) != 1+3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "hand schedule") {
		t.Errorf("header = %q", lines[0])
	}
	// P0 and P1 run task 0 then task 1; P2 is idle.
	if !strings.Contains(lines[1], "0") || !strings.Contains(lines[1], "1") {
		t.Errorf("P0 row = %q", lines[1])
	}
	p2 := lines[3]
	if strings.ContainsAny(p2[strings.Index(p2, "|"):], "01") {
		t.Errorf("P2 should be idle: %q", p2)
	}
}

func TestWriteGanttPessimistic(t *testing.T) {
	s := ganttFixture(t)
	var opt, pes bytes.Buffer
	if err := s.WriteGantt(&opt, GanttOptions{Width: 40}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteGantt(&pes, GanttOptions{Width: 40, Pessimistic: true}); err != nil {
		t.Fatal(err)
	}
	if opt.String() == pes.String() {
		t.Error("pessimistic rendering should differ (horizon 20 vs 10)")
	}
	if !strings.Contains(pes.String(), "horizon 20") {
		t.Errorf("pessimistic header: %q", strings.SplitN(pes.String(), "\n", 2)[0])
	}
}

func TestWriteGanttIncomplete(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "x")
	var buf bytes.Buffer
	if err := s.WriteGantt(&buf, GanttOptions{}); err == nil {
		t.Error("incomplete schedule rendered")
	}
}

// A complete schedule whose replicas all finish at 0 renders, every span in
// column 0, instead of reading its zero horizon as incompleteness.
func TestWriteGanttZeroHorizon(t *testing.T) {
	g := dag.NewWithTasks("zero", 2)
	p, err := uniformPlatform(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, p, cm, 0, PatternAll, "zero")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []dag.TaskID{0, 1} {
		if err := s.Place(task, []Replica{{Task: task}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var b strings.Builder
	if err := s.WriteGantt(&b, GanttOptions{Width: 4}); err != nil {
		t.Fatal(err)
	}
	const want = "zero schedule, ε=0, horizon 0 (1 column = 0)\nP0   |1   |\n"
	if b.String() != want {
		t.Fatalf("Gantt\n%q, want\n%q", b.String(), want)
	}
}

func TestSummary(t *testing.T) {
	s := ganttFixture(t)
	sum := s.Summary()
	for _, want := range []string{"hand", "2 tasks", "×2 replicas", "3 processors", "all pattern"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary %q missing %q", sum, want)
		}
	}
}

func TestComputeMetrics(t *testing.T) {
	s := ganttFixture(t)
	m, err := s.ComputeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LowerBound != 10 || m.UpperBound != 20 {
		t.Errorf("bounds %g/%g", m.LowerBound, m.UpperBound)
	}
	// Work: task 0 runs 4+4, task 1 runs 6+6.
	if m.TotalWork != 20 {
		t.Errorf("TotalWork = %g, want 20", m.TotalWork)
	}
	if m.Replicas != 4 {
		t.Errorf("Replicas = %d", m.Replicas)
	}
	if m.Messages != 2 {
		t.Errorf("Messages = %d", m.Messages)
	}
	// Each of the 2 cross messages carries volume 10.
	if m.CommVolume != 20 {
		t.Errorf("CommVolume = %g, want 20", m.CommVolume)
	}
	// P0 and P1 busy 10/10 each; P2 idle.
	if math.Abs(m.MeanUtilization-2.0/3) > 1e-9 {
		t.Errorf("MeanUtilization = %g, want 2/3", m.MeanUtilization)
	}
	if m.MinUtilization != 0 || m.MaxUtilization != 1 {
		t.Errorf("utilization extremes %g/%g", m.MinUtilization, m.MaxUtilization)
	}
	// Each task duplicated exactly twice at equal cost.
	if m.ReplicationFactor != 2 {
		t.Errorf("ReplicationFactor = %g, want 2", m.ReplicationFactor)
	}
}

func TestComputeMetricsIncomplete(t *testing.T) {
	g, p, cm := fixture(t)
	s, _ := New(g, p, cm, 1, PatternAll, "x")
	if _, err := s.ComputeMetrics(); err == nil {
		t.Error("metrics of incomplete schedule computed")
	}
}
