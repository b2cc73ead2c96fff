package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/tune"
)

func testTuneRequest(t *testing.T) *TuneRequest {
	t.Helper()
	g, p, cm := testInstance(t, "diamond")
	return &TuneRequest{
		Instance: Instance{Graph: g, Platform: p, Costs: cm},
		Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1},
		Trials:   40,
		Target:   0.9,
		EvalSeed: 7,
	}
}

func postTune(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/tune", body)
}

func TestTuneMissThenHit(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := marshalJSON(t, testTuneRequest(t))

	resp1, data1 := postTune(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get(CacheStatusHeader); got != "miss" {
		t.Fatalf("first request cache status %q, want miss", got)
	}
	resp2, data2 := postTune(t, ts.URL, body)
	if got := resp2.Header.Get(CacheStatusHeader); got != "hit" {
		t.Fatalf("second request cache status %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cache hit returned different bytes:\nmiss: %s\nhit:  %s", data1, data2)
	}

	var out TuneResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tasks != 4 || out.Procs != 3 {
		t.Fatalf("response header fields wrong: %+v", out)
	}
	// The grid must be the registry surface on a 3-processor platform: the
	// default ε ladder truncated to realizable entries.
	want := tune.DeriveCandidates(3, nil)
	if len(out.Result.Candidates) != len(want) {
		t.Fatalf("grid has %d candidates, want %d", len(out.Result.Candidates), len(want))
	}
	for i, c := range out.Result.Candidates {
		if c.Candidate != want[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, c.Candidate, want[i])
		}
	}
	if len(out.Result.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, i := range out.Result.Frontier {
		if !out.Result.Candidates[i].Frontier {
			t.Fatalf("frontier index %d not marked", i)
		}
	}
	// Under one uniform crash every fault-tolerant candidate succeeds
	// always, so the 0.9 target must be met.
	if !out.Result.TargetMet || out.Result.Recommended < 0 {
		t.Fatalf("target not met: %+v", out.Result)
	}
	best := out.Result.Candidates[out.Result.Recommended]
	if best.Full == nil || best.Full.SuccessRate < 0.9 {
		t.Fatalf("recommended candidate misses the target: %+v", best)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.TuneRequests != 2 || st.Requests != 2 {
		t.Fatalf("tune_requests/requests = %d/%d, want 2/2", st.TuneRequests, st.Requests)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	// Every registered scheduler appears in the per-scheduler table, once
	// per well-formed tune request.
	for _, name := range sched.Names() {
		if st.SchedulerRequests[name] != 2 {
			t.Fatalf("scheduler_requests[%s] = %d, want 2", name, st.SchedulerRequests[name])
		}
	}
}

// The /tune response must be bit-identical whether served fresh or from the
// cache, and across servers (the cache key is a pure function of the body).
func TestTuneDeterministicAcrossServers(t *testing.T) {
	body := marshalJSON(t, testTuneRequest(t))
	var want []byte
	for i := 0; i < 2; i++ {
		_, ts := startServer(t, Config{})
		_, data := postTune(t, ts.URL, body)
		if want == nil {
			want = data
		} else if !bytes.Equal(want, data) {
			t.Fatal("two servers produced different /tune bytes for one request")
		}
	}
}

func TestTuneRejections(t *testing.T) {
	_, ts := startServer(t, Config{MaxTrials: 100, MaxCandidates: 8})
	cases := []struct {
		name   string
		mutate func(*TuneRequest)
		status int
		substr string
	}{
		{"no graph", func(r *TuneRequest) { r.Graph = nil }, 400, "graph"},
		{"zero trials", func(r *TuneRequest) { r.Trials = 0 }, 400, "trials"},
		{"neg screen", func(r *TuneRequest) { r.ScreenTrials = -1 }, 400, "screen_trials"},
		{"bad target", func(r *TuneRequest) { r.Target = 2 }, 400, "target"},
		{"bad scenario", func(r *TuneRequest) { r.Scenario = sim.ScenarioSpec{Kind: "nope"} }, 400, "scenario"},
		{"dup epsilon", func(r *TuneRequest) { r.Epsilons = []int{2, 2} }, 400, "duplicate"},
		{"neg epsilon", func(r *TuneRequest) { r.Epsilons = []int{-1} }, 400, "epsilons"},
		{"too many trials", func(r *TuneRequest) { r.Trials = 101 }, 400, "at most 100"},
		// The default grid on 3 processors (14 points) exceeds the 8-candidate cap.
		{"too many candidates", func(r *TuneRequest) {}, 400, "candidates"},
	}
	for _, c := range cases {
		req := testTuneRequest(t)
		c.mutate(req)
		resp, data := postTune(t, ts.URL, marshalJSON(t, req))
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", c.name, data)
			continue
		}
		if !strings.Contains(e.Error, c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, e.Error, c.substr)
		}
	}

	// A narrowed ladder shrinks the derived grid under the cap: same server,
	// same instance, one realizable ε level → accepted. The oversized entry
	// is skipped (one ladder serves every platform size), matching
	// DeriveCandidates and the ftexp tune campaign.
	req := testTuneRequest(t)
	req.Epsilons = []int{2, 9}
	req.Trials = 20
	if resp, data := postTune(t, ts.URL, marshalJSON(t, req)); resp.StatusCode != http.StatusOK {
		t.Fatalf("narrowed ladder rejected: %d %s", resp.StatusCode, data)
	}
}

// The worst_case knob flows end to end: per-candidate worst cases in the
// response, a distinct cache key, and robust-mode validation at the door.
func TestTuneWorstCase(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := testTuneRequest(t)
	req.WorstCase = &sim.AdversarySpec{Crashes: 1, MaxEvals: 64}
	req.Robust = true
	resp, data := postTune(t, ts.URL, marshalJSON(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("robust tune: %d %s", resp.StatusCode, data)
	}
	var out TuneResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.WorstCase != req.WorstCase.String() || !out.Result.Robust {
		t.Fatalf("result does not echo the adversarial setup: %+v", out.Result)
	}
	seen := false
	for _, c := range out.Result.Candidates {
		if c.Full != nil && c.WorstCase == nil {
			t.Fatalf("full-pass candidate %s has no worst case", c.Candidate)
		}
		seen = seen || c.WorstCase != nil
	}
	if !seen {
		t.Fatal("no candidate carries a worst case")
	}

	// Distinct cache keys: plain, adversarial, and robust requests all differ.
	plain := TuneFingerprint(testTuneRequest(t))
	advReq := testTuneRequest(t)
	advReq.WorstCase = &sim.AdversarySpec{Crashes: 1, MaxEvals: 64}
	adv := TuneFingerprint(advReq)
	advReq.Robust = true
	robust := TuneFingerprint(advReq)
	if plain == adv || adv == robust || plain == robust {
		t.Fatalf("fingerprints collide: plain=%x adv=%x robust=%x", plain, adv, robust)
	}

	// Robust without a budget and a broken budget are wire-level 400s.
	for _, c := range []struct {
		name   string
		mutate func(*TuneRequest)
		substr string
	}{
		{"robust alone", func(r *TuneRequest) { r.Robust = true }, "robust requires worst_case"},
		{"neg crashes", func(r *TuneRequest) { r.WorstCase = &sim.AdversarySpec{Crashes: -1} }, "worst_case"},
	} {
		bad := testTuneRequest(t)
		c.mutate(bad)
		resp, data := postTune(t, ts.URL, marshalJSON(t, bad))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.substr) {
			t.Errorf("%s: got %d %s, want 400 mentioning %q", c.name, resp.StatusCode, data, c.substr)
		}
	}
}

func TestEndpointTableCoversMux(t *testing.T) {
	table := EndpointTable()
	for _, path := range []string{"/schedule", "/evaluate", "/tune", "/healthz", "/stats"} {
		if !strings.Contains(table, "`"+path+"`") {
			t.Errorf("EndpointTable misses %s:\n%s", path, table)
		}
	}
	// Every cached POST endpoint's fingerprint domain must appear, so the
	// table documents how the shared cache keyspace is partitioned.
	for _, domain := range []string{"schedule", "evaluate", "tune"} {
		if !strings.Contains(table, "| "+domain+" |") {
			t.Errorf("EndpointTable misses cache domain %q:\n%s", domain, table)
		}
	}
}
