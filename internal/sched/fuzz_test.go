package sched

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// fuzzInstance is the fixed diamond instance every fuzzed schedule binds to
// (ReadSchedule re-validates against it, so structurally valid JSON for the
// wrong instance must error cleanly too).
func fuzzInstance(tb testing.TB) (*dag.Graph, *platform.Platform, *platform.CostModel) {
	tb.Helper()
	g := dag.NewWithTasks("fuzz", 4)
	for _, e := range []struct {
		src, dst dag.TaskID
		vol      float64
	}{{0, 1, 1}, {0, 2, 2}, {1, 3, 1}, {2, 3, 0.5}} {
		if err := g.AddEdge(e.src, e.dst, e.vol); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := uniformPlatform(3, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := platform.NewRandomCostModel(rand.New(rand.NewSource(7)), 4, 3, 1, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return g, p, cm
}

// validScheduleJSON serializes a hand-placed valid ε=0 schedule for the fuzz
// instance — the well-formed seed the fuzzer mutates.
func validScheduleJSON(tb testing.TB) []byte {
	tb.Helper()
	g, p, cm := fuzzInstance(tb)
	s, err := New(g, p, cm, 0, PatternAll, "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	// Sequential placement on P0: trivially precedence- and overlap-clean.
	now := 0.0
	for _, t := range []dag.TaskID{0, 1, 2, 3} {
		c := cm.Cost(t, 0)
		rep := Replica{Task: t, Copy: 0, Proc: 0,
			StartMin: now, FinishMin: now + c, StartMax: now, FinishMax: now + c}
		if err := s.Place(t, []Replica{rep}); err != nil {
			tb.Fatal(err)
		}
		now += c
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSchedule proves a hostile schedule file never panics the loader:
// every outcome is a clean (schedule, nil) or (nil, error), and an accepted
// schedule is fully valid (the loader's contract) and re-serializable.
func FuzzReadSchedule(f *testing.F) {
	f.Add(validScheduleJSON(f))
	// The registry's golden schedule files are richer seeds (replication,
	// matched patterns, FTBAR duplicates); they bind to a different
	// instance, so the loader must reject them — cleanly.
	if goldens, err := filepath.Glob(filepath.Join("..", "schedulers", "testdata", "*.golden.json")); err == nil {
		for _, path := range goldens {
			if blob, err := os.ReadFile(path); err == nil {
				f.Add(blob)
			}
		}
	}
	for _, seed := range []string{
		"",
		"null",
		"{}",
		`{"algorithm": "X", "epsilon": -1}`,
		`{"algorithm": "X", "epsilon": 0, "pattern": 9, "mapping_order": [0,1,2,3], "replicas": [[],[],[],[]]}`,
		`{"algorithm": "X", "epsilon": 0, "pattern": 1, "mapping_order": [3,2,1,0], "replicas": [[{"proc": 0}]], "matched": [[[0]]]}`,
		`{"mapping_order": [0,0,0,0], "replicas": [[{"proc": 99, "start_min": 1e308, "finish_min": -5}]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		g, p, cm := fuzzInstance(t)
		s, err := ReadSchedule(bytes.NewReader(blob), g, p, cm)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("ReadSchedule returned nil, nil")
		}
		// The loader promises a fully validated schedule.
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ReadSchedule accepted an invalid schedule: %v", verr)
		}
		var buf bytes.Buffer
		if _, werr := s.WriteTo(&buf); werr != nil {
			t.Fatalf("accepted schedule does not re-serialize: %v", werr)
		}
	})
}

// TestReadScheduleRejectsFuzzSeeds pins the malformed seeds as plain tests,
// so the corpus stays meaningful in ordinary -run invocations.
func TestReadScheduleRejectsFuzzSeeds(t *testing.T) {
	g, p, cm := fuzzInstance(t)
	if _, err := ReadSchedule(bytes.NewReader(validScheduleJSON(t)), g, p, cm); err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	for _, seed := range []string{
		"", "null", "{}",
		`{"algorithm": "X", "epsilon": -1}`,
		`{"mapping_order": [0,0,0,0], "replicas": [[{"proc": 99}]]}`,
	} {
		if _, err := ReadSchedule(bytes.NewReader([]byte(seed)), g, p, cm); err == nil {
			t.Errorf("seed %q accepted", seed)
		}
	}
}
