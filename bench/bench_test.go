package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestManifestMatchesDeclarations pins BENCHMARK.json to the declarations
// the program prints from: same workloads, same metrics, same units,
// directions and bounds, same run length.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	compare := func(kind string, listed []manifestMetric, decls []metricDecl, bounded bool) {
		if len(listed) != len(decls) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(listed), len(decls))
			return
		}
		for i, d := range decls {
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, l.Name, l.Unit, l.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (l.Bound != nil) || (bounded && *l.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs from the program's %g", kind, d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}

// TestSmokePrintsEveryDeclaredMetric runs the whole benchmark in its smoke
// configuration and checks that every workload passes its output checks and
// reports exactly the declared metric names, traced pass included — the
// drift test between what is printed and what BENCHMARK.json promises.
func TestSmokePrintsEveryDeclaredMetric(t *testing.T) {
	rep, err := newBench(1, 0.3, true, true, t.TempDir(), io.Discard).run(nil)
	if err != nil {
		t.Fatal(err)
	}
	names := func(decls []metricDecl) []string {
		out := make([]string, len(decls))
		for i, d := range decls {
			out[i] = d.Name
		}
		sort.Strings(out)
		return out
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: %d failed operations, problems %q", wr.Name, wr.Failed, wr.Problems)
		}
		if wr.OutputsDigest == "" {
			t.Errorf("%s: no outputs digest", wr.Name)
		}
		if got, want := sortedKeys(wr.EndToEnd), names(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s end-to-end metrics:\n got %v\nwant %v", wr.Name, got, want)
		}
		if got, want := sortedKeys(wr.PerLayer), names(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s per-layer metrics:\n got %v\nwant %v", wr.Name, got, want)
		}
		for name, v := range wr.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, end-to-end metrics are never 0", wr.Name, name, v.Value)
			}
		}
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(resultLine(wr, true)), &line); err != nil {
			t.Fatalf("%s result line: %v", wr.Name, err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s result line: correct %v, attempted %d, %d metrics", wr.Name, line.Correct, line.Attempted, len(line.Metrics))
		}
	}
}
