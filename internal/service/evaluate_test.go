package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ftsched/internal/sim"
	"ftsched/internal/trace"
)

func testEvaluateRequest(t *testing.T) *EvaluateRequest {
	t.Helper()
	return &EvaluateRequest{
		ScheduleRequest: *testRequest(t),
		Trials:          50,
		Scenario:        sim.ScenarioSpec{Kind: "uniform", Crashes: 1},
		EvalSeed:        7,
	}
}

func marshalJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postEvaluate(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/evaluate", body)
}

func TestEvaluateMissThenHit(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := marshalJSON(t, testEvaluateRequest(t))

	resp1, data1 := postEvaluate(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get(CacheStatusHeader); got != "miss" {
		t.Fatalf("first request cache status %q, want miss", got)
	}
	resp2, data2 := postEvaluate(t, ts.URL, body)
	if got := resp2.Header.Get(CacheStatusHeader); got != "hit" {
		t.Fatalf("second request cache status %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cache hit returned different bytes:\nmiss: %s\nhit:  %s", data1, data2)
	}

	var out EvaluateResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Scheduler != "FTSA" || out.Epsilon != 1 || out.Tasks != 4 || out.Procs != 3 {
		t.Fatalf("response header fields wrong: %+v", out)
	}
	if out.Scenario != "uniform:1" {
		t.Fatalf("scenario echoed as %q, want uniform:1", out.Scenario)
	}
	// One uniform crash is within the ε=1 guarantee: every trial succeeds.
	if out.Eval.Trials != 50 || out.Eval.SuccessRate != 1 {
		t.Fatalf("eval section %+v, want 50 all-success trials", out.Eval)
	}
	if out.Eval.Latency.Mean < out.LowerBound-1e-9 || out.Eval.Latency.Max > out.UpperBound+1e-9 {
		t.Fatalf("latencies [%g,%g] escape the bounds [%g,%g]",
			out.Eval.Latency.Mean, out.Eval.Latency.Max, out.LowerBound, out.UpperBound)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != 2 || st.EvaluateRequests != 2 {
		t.Fatalf("requests/evaluate_requests = %d/%d, want 2/2", st.Requests, st.EvaluateRequests)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.SchedulerRequests["ftsa"] != 2 {
		t.Fatalf("scheduler_requests = %v, want ftsa:2", st.SchedulerRequests)
	}
}

// The evaluation must be reproducible across servers (no hidden process
// state) and across the /schedule response for the same request parameters.
func TestEvaluateDeterministicAcrossServers(t *testing.T) {
	_, ts1 := startServer(t, Config{})
	_, ts2 := startServer(t, Config{})
	body := marshalJSON(t, testEvaluateRequest(t))
	_, data1 := postEvaluate(t, ts1.URL, body)
	_, data2 := postEvaluate(t, ts2.URL, body)
	if !bytes.Equal(data1, data2) {
		t.Fatalf("two fresh servers disagree:\n%s\nvs\n%s", data1, data2)
	}
}

// Different scenarios, trials or eval seeds must not share cache entries.
func TestEvaluateFingerprintSensitivity(t *testing.T) {
	base := EvaluateFingerprint(testEvaluateRequest(t))
	mutations := map[string]func(*EvaluateRequest){
		"trials":    func(r *EvaluateRequest) { r.Trials = 51 },
		"eval_seed": func(r *EvaluateRequest) { r.EvalSeed = 8 },
		"scenario kind": func(r *EvaluateRequest) {
			r.Scenario = sim.ScenarioSpec{Kind: "exp", Lambda: 0.001}
		},
		"scenario param": func(r *EvaluateRequest) { r.Scenario.Crashes = 2 },
		"epsilon":        func(r *EvaluateRequest) { r.Epsilon = 2 },
		"scheduler":      func(r *EvaluateRequest) { r.Scheduler = "ftbar" },
		"sched seed":     func(r *EvaluateRequest) { r.Seed = 3 },
	}
	for name, mutate := range mutations {
		req := testEvaluateRequest(t)
		mutate(req)
		if EvaluateFingerprint(req) == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
	// The /schedule and /evaluate keyspaces are disjoint: the same
	// scheduling parameters never collide across endpoints.
	req := testEvaluateRequest(t)
	if EvaluateFingerprint(req) == RequestFingerprint(&req.ScheduleRequest) {
		t.Error("evaluate fingerprint collides with the schedule fingerprint")
	}
}

func TestEvaluateRejects(t *testing.T) {
	_, ts := startServer(t, Config{MaxTrials: 100})
	cases := map[string]func(*EvaluateRequest){
		"zero trials":      func(r *EvaluateRequest) { r.Trials = 0 },
		"too many trials":  func(r *EvaluateRequest) { r.Trials = 101 },
		"no scenario":      func(r *EvaluateRequest) { r.Scenario = sim.ScenarioSpec{} },
		"bad kind":         func(r *EvaluateRequest) { r.Scenario.Kind = "meteor" },
		"too many crashes": func(r *EvaluateRequest) { r.Scenario.Crashes = 99 },
		"include_gantt":    func(r *EvaluateRequest) { r.IncludeGantt = true },
		"include_schedule": func(r *EvaluateRequest) { r.IncludeSchedule = true },
		"lambda":           func(r *EvaluateRequest) { r.Lambda = 0.1 },
		"unknown sched":    func(r *EvaluateRequest) { r.Scheduler = "slurm" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			req := testEvaluateRequest(t)
			mutate(req)
			resp, data := postEvaluate(t, ts.URL, marshalJSON(t, req))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
			}
			var e ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("unhelpful 400 body: %s", data)
			}
		})
	}
	// Unknown top-level fields fail loudly, like /schedule.
	resp, _ := postEvaluate(t, ts.URL, []byte(`{"trails": 10}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo field: status %d, want 400", resp.StatusCode)
	}
}

// A scenario that does not fit the platform is a 400 whose body carries the
// kind's platform-fit text, pinned byte for byte.
func TestEvaluatePlatformFitBodies(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, tc := range []struct {
		spec sim.ScenarioSpec
		err  string
	}{
		{sim.ScenarioSpec{Kind: "uniform", Crashes: 9}, "sim: cannot crash 9 of 3 processors"},
		{sim.ScenarioSpec{Kind: "burst", Crashes: 9, Lambda: 0.1}, "sim: cannot crash 9 of 3 processors"},
		{sim.ScenarioSpec{Kind: "staggered", Crashes: 9, Horizon: 10}, "sim: cannot crash 9 of 3 processors"},
		{sim.ScenarioSpec{Kind: "group", GroupSize: 9, Lambda: 0.1}, "sim: group size 9 exceeds platform of 3 processors"},
		{sim.ScenarioSpec{Kind: "trace", Trace: &sim.TraceSpec{Events: []trace.Event{{Proc: 9, Time: 1}}}}, "sim: trace names processor 9, platform has 3"},
	} {
		req := testEvaluateRequest(t)
		req.Scenario = tc.spec
		resp, data := postEvaluate(t, ts.URL, marshalJSON(t, req))
		want := `{"error":"scenario: ` + tc.err + `"}` + "\n"
		if resp.StatusCode != http.StatusBadRequest || string(data) != want {
			t.Errorf("%s: status %d, body %q, want 400 %q", tc.spec, resp.StatusCode, data, want)
		}
	}
}

// Every scenario kind must serve end to end.
func TestEvaluateAllScenarioKinds(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, spec := range []sim.ScenarioSpec{
		{Kind: "uniform", Crashes: 1},
		{Kind: "exp", Lambda: 0.05},
		{Kind: "weibull", Shape: 1.5, Scale: 20},
		{Kind: "group", GroupSize: 2, Lambda: 0.05},
		{Kind: "burst", Crashes: 2, Lambda: 0.05, Spread: 3},
		{Kind: "staggered", Crashes: 1, Horizon: 10},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			req := testEvaluateRequest(t)
			req.Scenario = spec
			resp, data := postEvaluate(t, ts.URL, marshalJSON(t, req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var out EvaluateResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			if out.Eval.Trials != req.Trials {
				t.Fatalf("eval ran %d trials, want %d", out.Eval.Trials, req.Trials)
			}
			if out.Eval.Generator != spec.String() {
				t.Fatalf("generator %q, want %q", out.Eval.Generator, spec.String())
			}
			if out.Eval.SuccessRate < out.Eval.SuccessLow-1e-12 || out.Eval.SuccessRate > out.Eval.SuccessHigh+1e-12 {
				t.Fatalf("success rate %g outside its Wilson interval [%g,%g]",
					out.Eval.SuccessRate, out.Eval.SuccessLow, out.Eval.SuccessHigh)
			}
		})
	}
}

// /evaluate agrees with calling the engine directly on the same schedule:
// the service layer adds caching, not semantics.
func TestEvaluateMatchesDirectEngine(t *testing.T) {
	srv, ts := startServer(t, Config{})
	req := testEvaluateRequest(t)
	resp, data := postEvaluate(t, ts.URL, marshalJSON(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	schedule, err := srv.solve(&req.ScheduleRequest)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := req.Scenario.Generator()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Evaluate(schedule, gen, req.Trials, sim.EvalOptions{Seed: req.EvalSeed})
	if err != nil {
		t.Fatal(err)
	}
	got, wantBlob := marshalJSON(t, out.Eval), marshalJSON(t, *want)
	if !bytes.Equal(got, wantBlob) {
		t.Fatalf("served eval differs from direct engine:\n%s\nvs\n%s", got, wantBlob)
	}
}

func TestEvaluateMethodNotAllowed(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /evaluate = %d, want 405", resp.StatusCode)
	}
}

// The request round-trips the wire intact, fingerprint included.
func TestEvaluateRequestRoundTrip(t *testing.T) {
	orig := testEvaluateRequest(t)
	orig.Scenario = sim.ScenarioSpec{Kind: "burst", Crashes: 2, Lambda: 0.01, Spread: 4}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvaluateRequest(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if got.Trials != orig.Trials || got.EvalSeed != orig.EvalSeed || got.Scenario != orig.Scenario {
		t.Fatalf("evaluation fields changed: %+v", got)
	}
	if EvaluateFingerprint(got) != EvaluateFingerprint(orig) {
		t.Fatal("round-trip changed the request fingerprint")
	}
}
