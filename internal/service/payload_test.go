package service

import (
	"cmp"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// A request marshaled and decoded again must describe the same problem:
// this pins the service payload as a faithful carrier of the dag/platform
// wire formats.
func TestScheduleRequestRoundTrip(t *testing.T) {
	orig := testRequest(t)
	orig.Scheduler = "mcftsa"
	orig.Policy = "bottleneck"
	orig.Epsilon = 1
	orig.Seed = 42
	orig.Lambda = 0.001
	orig.IncludeGantt = true
	orig.IncludeSchedule = true

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScheduleRequest(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}

	if got.Graph.NumTasks() != orig.Graph.NumTasks() || got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d tasks, %d/%d edges",
			got.Graph.NumTasks(), orig.Graph.NumTasks(), got.Graph.NumEdges(), orig.Graph.NumEdges())
	}
	sortedSuccs := func(g *dag.Graph, t int) []dag.Adj {
		out := slices.Clone(g.Succs(dag.TaskID(t)))
		slices.SortFunc(out, func(a, b dag.Adj) int { return cmp.Compare(a.To, b.To) })
		return out
	}
	for tsk := 0; tsk < orig.Graph.NumTasks(); tsk++ {
		if want, have := sortedSuccs(orig.Graph, tsk), sortedSuccs(got.Graph, tsk); !slices.Equal(want, have) {
			t.Fatalf("task %d: successors %+v decoded, want %+v", tsk, have, want)
		}
	}
	m := orig.Platform.NumProcs()
	if got.Platform.NumProcs() != m {
		t.Fatalf("platform size changed: %d, want %d", got.Platform.NumProcs(), m)
	}
	for k := 0; k < m; k++ {
		for h := 0; h < m; h++ {
			if got.Platform.Delay(platform.ProcID(k), platform.ProcID(h)) !=
				orig.Platform.Delay(platform.ProcID(k), platform.ProcID(h)) {
				t.Fatalf("delay (%d,%d) changed", k, h)
			}
		}
	}
	for tsk := 0; tsk < orig.Graph.NumTasks(); tsk++ {
		for k := 0; k < m; k++ {
			if got.Costs.Cost(dag.TaskID(tsk), platform.ProcID(k)) !=
				orig.Costs.Cost(dag.TaskID(tsk), platform.ProcID(k)) {
				t.Fatalf("cost (%d,%d) changed", tsk, k)
			}
		}
	}
	if got.Scheduler != orig.Scheduler || got.Policy != orig.Policy ||
		got.Epsilon != orig.Epsilon || got.Seed != orig.Seed || got.Lambda != orig.Lambda ||
		got.IncludeGantt != orig.IncludeGantt || got.IncludeSchedule != orig.IncludeSchedule {
		t.Fatalf("scalar fields changed: %+v", got)
	}
	// The fingerprint is the strongest equality check: same cache entry.
	if RequestFingerprint(got) != RequestFingerprint(orig) {
		t.Fatal("round-trip changed the request fingerprint")
	}
}

// validBody returns a well-formed request body that tests mutate.
func validBody(t *testing.T) map[string]any {
	t.Helper()
	data, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDecodeScheduleRequestRejects(t *testing.T) {
	cases := []struct {
		name    string
		body    func(t *testing.T) string
		wantSub string
	}{
		{"invalid json", func(t *testing.T) string { return "{" }, "decoding request"},
		{"trailing data", func(t *testing.T) string {
			data, _ := json.Marshal(testRequest(t))
			return string(data) + "{}"
		}, "unexpected data"},
		{"unknown field", func(t *testing.T) string {
			b := validBody(t)
			b["epsilom"] = 3
			s, _ := json.Marshal(b)
			return string(s)
		}, "unknown field"},
		{"missing graph", func(t *testing.T) string {
			b := validBody(t)
			delete(b, "graph")
			s, _ := json.Marshal(b)
			return string(s)
		}, `missing field "graph"`},
		{"missing platform", func(t *testing.T) string {
			b := validBody(t)
			delete(b, "platform")
			s, _ := json.Marshal(b)
			return string(s)
		}, `missing field "platform"`},
		{"missing costs", func(t *testing.T) string {
			b := validBody(t)
			delete(b, "costs")
			s, _ := json.Marshal(b)
			return string(s)
		}, `missing field "costs"`},
		{"missing scheduler", func(t *testing.T) string {
			b := validBody(t)
			delete(b, "scheduler")
			s, _ := json.Marshal(b)
			return string(s)
		}, `missing field "scheduler"`},
		{"unknown scheduler", func(t *testing.T) string {
			b := validBody(t)
			b["scheduler"] = "slurm"
			s, _ := json.Marshal(b)
			return string(s)
		}, "unknown scheduler"},
		{"negative epsilon", func(t *testing.T) string {
			b := validBody(t)
			b["epsilon"] = -1
			s, _ := json.Marshal(b)
			return string(s)
		}, "epsilon must be >= 0"},
		{"epsilon too large", func(t *testing.T) string {
			b := validBody(t)
			b["epsilon"] = 5 // platform has 3 processors
			s, _ := json.Marshal(b)
			return string(s)
		}, "distinct processors"},
		{"heft with replication", func(t *testing.T) string {
			b := validBody(t)
			b["scheduler"] = "heft"
			b["epsilon"] = 1
			s, _ := json.Marshal(b)
			return string(s)
		}, "epsilon must be 0"},
		{"policy on a policy-free scheduler", func(t *testing.T) string {
			b := validBody(t)
			b["policy"] = "greedy"
			s, _ := json.Marshal(b)
			return string(s)
		}, "accepts no policy"},
		{"unknown policy", func(t *testing.T) string {
			b := validBody(t)
			b["scheduler"] = "mcftsa"
			b["policy"] = "fastest"
			s, _ := json.Marshal(b)
			return string(s)
		}, "unknown policy"},
		{"negative lambda", func(t *testing.T) string {
			b := validBody(t)
			b["lambda"] = -0.5
			s, _ := json.Marshal(b)
			return string(s)
		}, "lambda must be >= 0"},
		{"cost dimension mismatch", func(t *testing.T) string {
			b := validBody(t)
			b["costs"] = map[string]any{"cost": [][]float64{{1, 1, 1}}}
			s, _ := json.Marshal(b)
			return string(s)
		}, "costs cover"},
		{"cyclic graph", func(t *testing.T) string {
			b := validBody(t)
			b["graph"] = map[string]any{
				"name": "cycle", "tasks": 2,
				"edges": []map[string]any{
					{"src": 0, "dst": 1, "volume": 1},
					{"src": 1, "dst": 0, "volume": 1},
				},
			}
			s, _ := json.Marshal(b)
			return string(s)
		}, "cycle"},
		{"negative task count", func(t *testing.T) string {
			b := validBody(t)
			b["graph"] = map[string]any{"name": "bad", "tasks": -3, "edges": []any{}}
			s, _ := json.Marshal(b)
			return string(s)
		}, "negative task count"},
		{"bad delay matrix", func(t *testing.T) string {
			b := validBody(t)
			b["platform"] = map[string]any{"procs": 2, "delay": [][]float64{{0, 1}, {1, 5}}}
			s, _ := json.Marshal(b)
			return string(s)
		}, "diagonal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeScheduleRequest(strings.NewReader(c.body(t)))
			if err == nil {
				t.Fatal("decode accepted a malformed request")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
