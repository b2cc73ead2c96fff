package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"ftsched/internal/sim"
	"ftsched/internal/trace"
)

func TestScenariosEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{})
	var out ScenariosResponse
	getJSON(t, ts.URL+"/scenarios", &out)
	names := make([]string, 0, len(out.Kinds))
	for _, k := range out.Kinds {
		names = append(names, k.Name)
		if k.Summary == "" || k.FlagForm == "" || len(k.Params) == 0 {
			t.Errorf("kind %q is missing documentation: %+v", k.Name, k)
		}
	}
	var want []string
	for _, k := range sim.ScenarioKindRegs() {
		want = append(want, k.Name)
	}
	if len(names) != len(want) {
		t.Fatalf("served kinds %v, registry has %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("served order %v, registry order %v", names, want)
		}
	}
	// /scenarios is an uncounted read, like /stats: it must not disturb the
	// requests == hits+misses+errors+cancelled conservation invariant.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != 0 {
		t.Fatalf("GET /scenarios counted toward requests: %d", st.Requests)
	}
	// The endpoint is a GET; POST must 405 like the other read-only routes.
	resp, err := http.Post(ts.URL+"/scenarios", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /scenarios = %d, want 405", resp.StatusCode)
	}
}

// The GET /scenarios body is pinned byte for byte: the kind table rows are
// served as-is, so a lost or renamed JSON tag shows here.
func TestScenariosBodyGolden(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/scenarios.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("GET /scenarios drifted from testdata/scenarios.golden:\n got %s\nwant %s", got, want)
	}
}

func TestScenarioKindTableListsEveryKind(t *testing.T) {
	table := ScenarioKindTable()
	for _, k := range sim.ScenarioKindRegs() {
		if !strings.Contains(table, "`"+k.FlagForm+"`") {
			t.Errorf("table is missing kind %q (flag form %q):\n%s", k.Name, k.FlagForm, table)
		}
	}
	if !strings.Contains(table, "alias exponential") {
		t.Errorf("table does not surface the exp alias:\n%s", table)
	}
}

// A trace scenario serves end to end through /evaluate: events inline on the
// wire, no filesystem involved, byte-identical across servers.
func TestEvaluateTraceScenario(t *testing.T) {
	_, ts1 := startServer(t, Config{})
	_, ts2 := startServer(t, Config{})
	req := testEvaluateRequest(t)
	req.Scenario = sim.ScenarioSpec{Kind: "trace", Trace: &sim.TraceSpec{
		Events:   []trace.Event{{Proc: 0, Time: 0}, {Proc: 2, Time: 5, Group: "rack"}},
		Resample: true,
	}}
	body := marshalJSON(t, req)
	resp, data1 := postEvaluate(t, ts1.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data1)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Scenario, "trace:2ev#") {
		t.Fatalf("scenario echoed as %q, want a trace content digest", out.Scenario)
	}
	if out.Eval.Trials != req.Trials {
		t.Fatalf("eval ran %d trials, want %d", out.Eval.Trials, req.Trials)
	}
	_, data2 := postEvaluate(t, ts2.URL, body)
	if string(data1) != string(data2) {
		t.Fatalf("two fresh servers disagree on a trace evaluation:\n%s\nvs\n%s", data1, data2)
	}
	// A trace naming a processor past the platform is rejected at validation.
	req.Scenario.Trace.Events = append(req.Scenario.Trace.Events, trace.Event{Proc: 99, Time: 1})
	resp, data := postEvaluate(t, ts1.URL, marshalJSON(t, req))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized trace: status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

// Distinct trace contents must not share a cache entry even though the wire
// spec differs only inside the events array.
func TestEvaluateTraceFingerprintSensitivity(t *testing.T) {
	mk := func(at float64) *EvaluateRequest {
		req := testEvaluateRequest(t)
		req.Scenario = sim.ScenarioSpec{Kind: "trace", Trace: &sim.TraceSpec{
			Events: []trace.Event{{Proc: 1, Time: at}},
		}}
		return req
	}
	if EvaluateFingerprint(mk(3)) == EvaluateFingerprint(mk(4)) {
		t.Fatal("distinct trace contents share a fingerprint")
	}
	if EvaluateFingerprint(mk(3)) != EvaluateFingerprint(mk(3)) {
		t.Fatal("equal trace contents disagree on the fingerprint")
	}
}
