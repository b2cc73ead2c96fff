package service

import (
	"bytes"
	"encoding/json"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sim"
)

func testMissionRequest(t *testing.T) *MissionRequest {
	t.Helper()
	return &MissionRequest{
		ScheduleRequest: *testRequest(t),
		Scenario:        sim.ScenarioSpec{Kind: "uniform", Crashes: 1},
		ScenarioSeed:    5,
	}
}

// doServer replays one request directly against a Server (no listener).
func doServer(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

// awaitMissionDone polls GET /missions/{id} until the mission leaves the
// running state, returning the final report bytes.
func awaitMissionDone(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := doServer(s, http.MethodGet, "/missions/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /missions/%s: %d %s", id, rec.Code, rec.Body.String())
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != MissionRunning {
			return rec.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("mission %s still running after 30s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMissionLifecycle covers the async contract end to end: 202 + id on
// create, poll to completion, JSONL event stream, idempotent re-POST as a
// cache hit — and the stats discipline (mission reads are uncounted polls;
// the conservation invariant covers the POSTs).
func TestMissionLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	body := marshalJSON(t, testMissionRequest(t))

	rec := doServer(s, http.MethodPost, "/missions", body)
	if rec.Code != http.StatusAccepted || rec.Header().Get(CacheStatusHeader) != "miss" {
		t.Fatalf("POST /missions: %d cache=%q %s", rec.Code, rec.Header().Get(CacheStatusHeader), rec.Body.String())
	}
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if len(acc.ID) != 32 || acc.State != "accepted" {
		t.Fatalf("accepted body: %s", rec.Body.String())
	}

	reportBytes := awaitMissionDone(t, s, acc.ID)
	var report MissionReport
	if err := json.Unmarshal(reportBytes, &report); err != nil {
		t.Fatal(err)
	}
	if report.ID != acc.ID || report.State != MissionDone {
		t.Fatalf("final report: %s", reportBytes)
	}
	if report.Outcome == nil || report.Scheduler == "" || report.MissionPolicy != "reschedule" {
		t.Fatalf("report missing fields: %s", reportBytes)
	}
	if report.LowerBound <= 0 || report.UpperBound < report.LowerBound {
		t.Fatalf("report bounds: %s", reportBytes)
	}

	ev := doServer(s, http.MethodGet, "/missions/"+acc.ID+"/events", nil)
	if ev.Code != http.StatusOK || ev.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET events: %d %q", ev.Code, ev.Header().Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSuffix(ev.Body.String(), "\n"), "\n")
	if len(lines) != report.Outcome.Events {
		t.Fatalf("event stream has %d lines, outcome reports %d", len(lines), report.Outcome.Events)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("event line %d is not JSON: %q", i, line)
		}
	}

	// Idempotent re-POST: same id, a cache hit, byte-identical body.
	re := doServer(s, http.MethodPost, "/missions", body)
	if re.Code != http.StatusAccepted || re.Header().Get(CacheStatusHeader) != "hit" {
		t.Fatalf("re-POST: %d cache=%q", re.Code, re.Header().Get(CacheStatusHeader))
	}
	if !bytes.Equal(re.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("re-POST body differs: %s vs %s", re.Body.Bytes(), rec.Body.Bytes())
	}

	// Stats: two counted requests (the POSTs; polls and event reads are
	// free), one miss + one hit, one retained mission, and conservation.
	var st Stats
	stRec := doServer(s, http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(stRec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.MissionRequests != 2 || st.Missions != 1 {
		t.Fatalf("stats: requests %d mission_requests %d missions %d, want 2/2/1",
			st.Requests, st.MissionRequests, st.Missions)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("stats: misses %d hits %d, want 1/1", st.CacheMisses, st.CacheHits)
	}
	if sum := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors + st.CancelledRequests; sum != st.Requests {
		t.Fatalf("conservation violated: %d != %d", sum, st.Requests)
	}
}

// Equal requests produce byte-identical reports and event logs on servers
// with different worker counts — the mission analogue of the /evaluate
// determinism guarantee.
func TestMissionDeterministicAcrossServers(t *testing.T) {
	body := marshalJSON(t, testMissionRequest(t))
	var wantReport, wantEvents []byte
	for _, workers := range []int{1, 4} {
		s := New(Config{Workers: workers})
		rec := doServer(s, http.MethodPost, "/missions", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("workers=%d: POST %d", workers, rec.Code)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		report := awaitMissionDone(t, s, acc.ID)
		events := doServer(s, http.MethodGet, "/missions/"+acc.ID+"/events", nil).Body.Bytes()
		if wantReport == nil {
			wantReport, wantEvents = report, events
		} else {
			if !bytes.Equal(report, wantReport) {
				t.Fatalf("workers=%d: report differs:\n%s\nvs\n%s", workers, report, wantReport)
			}
			if !bytes.Equal(events, wantEvents) {
				t.Fatalf("workers=%d: event log differs:\n%s\nvs\n%s", workers, events, wantEvents)
			}
		}
		s.Close()
	}
}

// Door validation: every malformed mission request dies with a counted 400,
// and the read endpoints reject malformed/unknown ids without counting.
func TestMissionValidation(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)

	bad := map[string][]byte{
		"not json":       []byte(`{"graph": nope`),
		"unknown field":  []byte(`{"surprise": 1}`),
		"include_gantt":  marshalJSON(t, func() *MissionRequest { r := testMissionRequest(t); r.IncludeGantt = true; return r }()),
		"lambda":         marshalJSON(t, func() *MissionRequest { r := testMissionRequest(t); r.Lambda = 0.1; return r }()),
		"unknown policy": marshalJSON(t, func() *MissionRequest { r := testMissionRequest(t); r.MissionPolicy = "hope"; return r }()),
		"bad scenario": marshalJSON(t, func() *MissionRequest {
			r := testMissionRequest(t)
			r.Scenario = sim.ScenarioSpec{Kind: "vibes"}
			return r
		}()),
	}
	for name, body := range bad {
		if rec := doServer(s, http.MethodPost, "/missions", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
	var st Stats
	if err := json.Unmarshal(doServer(s, http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != uint64(len(bad)) || st.ClientErrors != uint64(len(bad)) {
		t.Fatalf("stats after rejects: requests %d client_errors %d, want %d each", st.Requests, st.ClientErrors, len(bad))
	}

	if rec := doServer(s, http.MethodGet, "/missions/zz", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d", rec.Code)
	}
	if rec := doServer(s, http.MethodGet, "/missions/0123456789abcdef0123456789abcdef", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", rec.Code)
	}
	var st2 Stats
	if err := json.Unmarshal(doServer(s, http.MethodGet, "/stats", nil).Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Requests != st.Requests || st2.ClientErrors != st.ClientErrors {
		t.Fatal("mission reads must not move the request counters")
	}
}

// Capacity: with every retained mission still running, a new mission is
// refused 429; once one finishes, it is evicted to admit the newcomer, whose
// id then 404s.
func TestMissionCapacityEviction(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 16, MaxMissions: 1})
	t.Cleanup(s.Close)
	release := occupyWorkers(t, s)

	reqA := testMissionRequest(t)
	bodyA := marshalJSON(t, reqA)
	reqB := testMissionRequest(t)
	reqB.ScenarioSeed = 99
	bodyB := marshalJSON(t, reqB)

	recA := doServer(s, http.MethodPost, "/missions", bodyA)
	if recA.Code != http.StatusAccepted {
		t.Fatalf("POST A: %d", recA.Code)
	}
	var accA struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(recA.Body.Bytes(), &accA); err != nil {
		t.Fatal(err)
	}

	// A is queued behind the blocked worker, so it is running and cannot be
	// evicted: B must be refused with a Retry-After.
	recB := doServer(s, http.MethodPost, "/missions", bodyB)
	if recB.Code != http.StatusTooManyRequests || recB.Header().Get("Retry-After") == "" {
		t.Fatalf("POST B while full of running missions: %d", recB.Code)
	}
	// Re-POST of A is still an idempotent hit, not a capacity error.
	if rec := doServer(s, http.MethodPost, "/missions", bodyA); rec.Code != http.StatusAccepted || rec.Header().Get(CacheStatusHeader) != "hit" {
		t.Fatalf("re-POST A: %d cache=%q", rec.Code, rec.Header().Get(CacheStatusHeader))
	}

	release()
	awaitMissionDone(t, s, accA.ID)

	// Now A is finished: B evicts it.
	recB = doServer(s, http.MethodPost, "/missions", bodyB)
	if recB.Code != http.StatusAccepted || recB.Header().Get(CacheStatusHeader) != "miss" {
		t.Fatalf("POST B after A finished: %d cache=%q %s", recB.Code, recB.Header().Get(CacheStatusHeader), recB.Body.String())
	}
	if rec := doServer(s, http.MethodGet, "/missions/"+accA.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET evicted mission: %d", rec.Code)
	}
	var accB struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(recB.Body.Bytes(), &accB); err != nil {
		t.Fatal(err)
	}
	awaitMissionDone(t, s, accB.ID)
}

// The /evaluate policy mode: policies score on the same scenario draws, the
// static policy is bit-identical to the classic Eval section, and the whole
// response stays deterministic and cacheable.
func TestEvaluatePolicies(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := testEvaluateRequest(t)
	req.Scheduler = "mcftsa"
	req.Trials = 60
	req.Scenario = sim.ScenarioSpec{Kind: "uniform", Crashes: 2}
	req.Policies = []string{"static", "reschedule"}
	body := marshalJSON(t, req)

	resp, data := postJSON(t, ts.URL+"/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /evaluate: %d %s", resp.StatusCode, data)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.PolicyEval) != 2 || er.PolicyEval[0].Policy != "static" || er.PolicyEval[1].Policy != "reschedule" {
		t.Fatalf("policy_eval: %+v", er.PolicyEval)
	}
	staticBlob := marshalJSON(t, er.PolicyEval[0].Eval)
	evalBlob := marshalJSON(t, er.Eval)
	if !bytes.Equal(staticBlob, evalBlob) {
		t.Fatalf("static policy eval diverges from the classic eval:\n%s\nvs\n%s", staticBlob, evalBlob)
	}
	if rr, rs := er.PolicyEval[1].Eval.SuccessRate, er.PolicyEval[0].Eval.SuccessRate; rr < rs {
		t.Fatalf("re-scheduling success %.3f < static %.3f on the same draws", rr, rs)
	}

	// Cacheable: the repeat is a byte-identical hit.
	resp2, data2 := postJSON(t, ts.URL+"/evaluate", body)
	if resp2.Header.Get(CacheStatusHeader) != "hit" || !bytes.Equal(data, data2) {
		t.Fatalf("repeat policy evaluate: cache=%q, equal=%v", resp2.Header.Get(CacheStatusHeader), bytes.Equal(data, data2))
	}

	// The same request without policies keeps its own (distinct) cache entry
	// and omits the section entirely.
	req.Policies = nil
	resp3, data3 := postJSON(t, ts.URL+"/evaluate", marshalJSON(t, req))
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get(CacheStatusHeader) != "miss" {
		t.Fatalf("plain evaluate after policy evaluate: %d cache=%q", resp3.StatusCode, resp3.Header.Get(CacheStatusHeader))
	}
	if bytes.Contains(data3, []byte("policy_eval")) {
		t.Fatalf("plain evaluate leaked policy_eval: %s", data3)
	}

	// Policy validation errors are 400s.
	req.Policies = []string{"optimistic"}
	if resp, data := postJSON(t, ts.URL+"/evaluate", marshalJSON(t, req)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: %d %s", resp.StatusCode, data)
	}
	req.Policies = []string{"static", "static"}
	if resp, data := postJSON(t, ts.URL+"/evaluate", marshalJSON(t, req)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate policy: %d %s", resp.StatusCode, data)
	}
}

// TestMissionIDEitherCase: ParseMissionID accepts either hex case, so both
// mission reads find a mission under an upper-cased id too, with the same
// bytes as under the id it was minted with.
func TestMissionIDEitherCase(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	rec := doServer(s, http.MethodPost, "/missions", marshalJSON(t, testMissionRequest(t)))
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	awaitMissionDone(t, s, acc.ID)
	upper := strings.ToUpper(acc.ID)
	if upper == acc.ID {
		t.Fatalf("id %s has no hex letter to upper-case", acc.ID)
	}
	for _, suffix := range []string{"", "/events"} {
		want := doServer(s, http.MethodGet, "/missions/"+acc.ID+suffix, nil)
		got := doServer(s, http.MethodGet, "/missions/"+upper+suffix, nil)
		if want.Code != http.StatusOK || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET /missions/{id}%s: upper-case id %d %q, minted id %d %q",
				suffix, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}

// TestMissionPostLoggedAndTimed: a successful POST /missions, created or
// re-POSTed, enters the /stats latency window and the verbose log like every
// other POST; a refused one enters neither.
func TestMissionPostLoggedAndTimed(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Workers: 1, Log: log.New(&logged, "", 0)})
	t.Cleanup(s.Close)
	body := marshalJSON(t, testMissionRequest(t))
	for _, want := range []string{"miss", "hit"} {
		if rec := doServer(s, http.MethodPost, "/missions", body); rec.Header().Get(CacheStatusHeader) != want {
			t.Fatalf("POST /missions: %d cache=%q, want %s", rec.Code, rec.Header().Get(CacheStatusHeader), want)
		}
	}
	if rec := doServer(s, http.MethodPost, "/missions", []byte(`{}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed POST /missions: %d", rec.Code)
	}
	if st := conserves(t, s); st.Latency.Count != 2 {
		t.Fatalf("latency window counted %d mission POSTs, want 2", st.Latency.Count)
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "/missions") || !strings.Contains(lines[0], "cache=miss") ||
		!strings.Contains(lines[1], "cache=hit") {
		t.Fatalf("verbose log:\n%s", logged.String())
	}
}

// TestMissionStorageNotRecycled: a mission outlives its response, so it
// keeps the pooled storage its body was decoded into. While it waits in the
// queue, 1 000 /schedule and /evaluate bodies that open with its graph — so
// that they take its pool key — but carry other costs are decoded through
// the same pools, each overwriting whatever storage it is given. The
// mission's event log and final report must still be byte-identical to a
// solo run's.
func TestMissionStorageNotRecycled(t *testing.T) {
	const tasks, procs = 24, 4
	g := dag.NewWithTasks("storage", tasks)
	for i := 0; i+1 < tasks; i++ {
		for j := i + 1; j < min(i+3, tasks); j++ {
			if err := g.AddEdge(dag.TaskID(i), dag.TaskID(j), float64(1+i%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := uniformPlatform(procs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	instance := func(seed int64) Instance {
		cm, err := platform.NewRandomCostModel(rand.New(rand.NewSource(seed)), tasks, procs, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return Instance{Graph: g, Platform: p, Costs: cm}
	}
	body := marshalJSON(t, &MissionRequest{
		ScheduleRequest: ScheduleRequest{Instance: instance(7), Scheduler: "ftsa", Epsilon: 1},
		Scenario:        sim.ScenarioSpec{Kind: "uniform", Crashes: 1},
		ScenarioSeed:    5,
		TaskEvents:      true,
	})
	post := func(s *Server) string {
		rec := doServer(s, http.MethodPost, "/missions", body)
		var acc struct {
			ID string `json:"id"`
		}
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &acc) != nil {
			t.Fatalf("POST /missions: %d %s", rec.Code, rec.Body.String())
		}
		return acc.ID
	}
	finished := func(s *Server, id string) (report, events []byte) {
		report = awaitMissionDone(t, s, id)
		return report, doServer(s, http.MethodGet, "/missions/"+id+"/events", nil).Body.Bytes()
	}

	solo := New(Config{Workers: 1})
	t.Cleanup(solo.Close)
	wantReport, wantEvents := finished(solo, post(solo))

	// One worker, held by a gate, and a queue of one that the mission fills:
	// every later request is decoded, refused with 429 and its storage given
	// back, while the mission has not started.
	srv := New(Config{Workers: 1, Queue: 1})
	t.Cleanup(srv.Close)
	started, gate := make(chan struct{}), make(chan struct{})
	var open sync.Once
	t.Cleanup(func() { open.Do(func() { close(gate) }) })
	if err := srv.pool.TrySubmit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	id := post(srv)
	for i := range 1000 {
		req := ScheduleRequest{Instance: instance(int64(100 + i)), Scheduler: "ftsa", Epsilon: 1, Seed: int64(i + 1)}
		path, v := "/schedule", any(&req)
		if i%2 == 1 {
			path, v = "/evaluate", &EvaluateRequest{ScheduleRequest: req, Trials: 4,
				Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1}, EvalSeed: int64(i)}
		}
		if rec := doServer(srv, http.MethodPost, path, marshalJSON(t, v)); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: %d %s; want 429 behind the queued mission", i, rec.Code, rec.Body.String())
		}
	}
	if rec := doServer(srv, http.MethodGet, "/missions/"+id, nil); !strings.Contains(rec.Body.String(), `"state":"running"`) {
		t.Fatalf("the mission ran before the gate opened: %s", rec.Body.String())
	}
	open.Do(func() { close(gate) })
	report, events := finished(srv, id)
	if !bytes.Equal(report, wantReport) {
		t.Fatalf("report differs from a solo run's:\n%s\nvs\n%s", report, wantReport)
	}
	if !bytes.Equal(events, wantEvents) {
		t.Fatalf("event log differs from a solo run's:\n%s\nvs\n%s", events, wantEvents)
	}
}
