package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsched/internal/sched"
)

// startServer spins up a Server behind an httptest listener.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func marshalRequest(t *testing.T, req *ScheduleRequest) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postSchedule(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/schedule", "application/json", bytes.NewReader(body))
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

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleMissThenHit(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := marshalRequest(t, testRequest(t))

	resp1, data1 := postSchedule(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get(CacheStatusHeader); got != "miss" {
		t.Fatalf("first request cache status %q, want miss", got)
	}

	resp2, data2 := postSchedule(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get(CacheStatusHeader); got != "hit" {
		t.Fatalf("second request cache status %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cache hit returned different bytes:\nmiss: %s\nhit:  %s", data1, data2)
	}

	var out ScheduleResponse
	if err := json.Unmarshal(data1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Scheduler != "FTSA" || out.Epsilon != 1 || out.Tasks != 4 || out.Procs != 3 {
		t.Fatalf("response header fields wrong: %+v", out)
	}
	if out.LowerBound <= 0 || out.UpperBound < out.LowerBound {
		t.Fatalf("implausible bounds: [%g, %g]", out.LowerBound, out.UpperBound)
	}
	if out.Metrics.Replicas != 4*2 {
		t.Fatalf("replicas = %d, want 8 (4 tasks × ε+1)", out.Metrics.Replicas)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", st.HitRate)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}
	if st.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", st.Latency.Count)
	}
	if st.Latency.P99Ms < st.Latency.P50Ms {
		t.Fatalf("p99 %g < p50 %g", st.Latency.P99Ms, st.Latency.P50Ms)
	}
}

// All four schedulers must serve, and the optional response sections must
// round-trip: the embedded schedule re-loads and re-validates against the
// instance via the sched wire format.
func TestScheduleAllSchedulers(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, tc := range []struct {
		scheduler string
		epsilon   int
		policy    string
		wantAlgo  string
	}{
		{"ftsa", 1, "", "FTSA"},
		{"mcftsa", 1, "bottleneck", "MC-FTSA"},
		{"ftbar", 1, "", "FTBAR"},
		{"heft", 0, "", "HEFT"},
		{"ftsa-ins", 1, "", "FTSA-ins"}, // registry-only variant
		{"FTSA", 2, "", "FTSA"},         // case-insensitive
		{"MC-FTSA", 1, "", "MC-FTSA"},   // registry alias
	} {
		t.Run(tc.scheduler+"-eps"+fmt.Sprint(tc.epsilon), func(t *testing.T) {
			req := testRequest(t)
			req.Scheduler = tc.scheduler
			req.Epsilon = tc.epsilon
			req.Policy = tc.policy
			req.Lambda = 0.001
			req.IncludeGantt = true
			req.IncludeSchedule = true
			resp, data := postSchedule(t, ts.URL, marshalRequest(t, req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var out ScheduleResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			if out.Scheduler != tc.wantAlgo {
				t.Fatalf("scheduler %q, want %q", out.Scheduler, tc.wantAlgo)
			}
			if out.Reliability == nil {
				t.Fatal("reliability section missing despite lambda > 0")
			}
			if s := out.Reliability.SurvivalLowerBound; s <= 0 || s > 1 {
				t.Fatalf("survival bound %g outside (0,1]", s)
			}
			if len(out.Gantt) != req.Platform.NumProcs() {
				t.Fatalf("gantt rows = %d, want %d", len(out.Gantt), req.Platform.NumProcs())
			}
			spans := 0
			for _, row := range out.Gantt {
				spans += len(row.Spans)
			}
			if spans != out.Metrics.Replicas {
				t.Fatalf("gantt spans = %d, metrics replicas = %d", spans, out.Metrics.Replicas)
			}
			if len(out.Schedule) == 0 {
				t.Fatal("schedule section missing despite include_schedule")
			}
			loaded, err := sched.ReadSchedule(bytes.NewReader(out.Schedule), req.Graph, req.Platform, req.Costs)
			if err != nil {
				t.Fatalf("embedded schedule does not round-trip: %v", err)
			}
			if loaded.LowerBound() != out.LowerBound || loaded.UpperBound() != out.UpperBound {
				t.Fatalf("round-tripped bounds [%g,%g] != response [%g,%g]",
					loaded.LowerBound(), loaded.UpperBound(), out.LowerBound, out.UpperBound)
			}
		})
	}
}

// The race-clean concurrency requirement: two waves of 64 parallel requests
// over 8 distinct problems. Wave two is guaranteed all-hits, and every
// response for one problem must be byte-identical regardless of path.
func TestScheduleConcurrent(t *testing.T) {
	_, ts := startServer(t, Config{Queue: 256})

	const distinct = 8
	const parallel = 64
	bodies := make([][]byte, distinct)
	for i := range bodies {
		req := testRequest(t)
		req.Epsilon = i%2 + 1
		req.Seed = int64(i/2 + 1)
		bodies[i] = marshalRequest(t, req)
	}

	responses := make([][]byte, 2*parallel)
	runWave := func(wave int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, parallel)
		for i := 0; i < parallel; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, data := postSchedule(t, ts.URL, bodies[i%distinct])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				responses[wave*parallel+i] = data
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	runWave(0)
	runWave(1)

	// Byte-identical per problem, across both waves (hit and miss paths).
	for i := 0; i < 2*parallel; i++ {
		want := responses[i%distinct]
		if !bytes.Equal(responses[i], want) {
			t.Fatalf("response %d differs from response %d for the same problem", i, i%distinct)
		}
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits == 0 {
		t.Fatal("no cache hits after repeated identical requests")
	}
	if st.CacheHits+st.CacheMisses != 2*parallel {
		t.Fatalf("hits+misses = %d, want %d", st.CacheHits+st.CacheMisses, 2*parallel)
	}
	// Wave two alone guarantees ≥ half the traffic hits.
	if st.HitRate < 0.5 {
		t.Fatalf("hit rate %g < 0.5", st.HitRate)
	}
}

func TestScheduleMalformedReturns400(t *testing.T) {
	_, ts := startServer(t, Config{})
	for name, body := range map[string]string{
		"empty":         "",
		"not json":      "epsilon=1",
		"truncated":     `{"graph": {"name":`,
		"wrong types":   `{"graph": 7, "platform": [], "costs": "x", "scheduler": 1}`,
		"missing graph": `{"scheduler": "ftsa", "epsilon": 1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, data := postSchedule(t, ts.URL, []byte(body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
			}
			var e ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", data)
			}
			if e.Error == "" {
				t.Fatal("error body has an empty message")
			}
		})
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.ClientErrors != 5 {
		t.Fatalf("client errors = %d, want 5", st.ClientErrors)
	}
}

// An unknown scheduler must be rejected with a 400 whose message enumerates
// the registry — the client sees exactly which names this binary serves.
func TestScheduleUnknownSchedulerListsRegistry(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := testRequest(t)
	req.Scheduler = "slurm"
	resp, data := postSchedule(t, ts.URL, marshalRequest(t, req))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not JSON: %s", data)
	}
	for _, name := range sched.Names() {
		if !strings.Contains(e.Error, name) {
			t.Errorf("400 body %q does not list registered scheduler %q", e.Error, name)
		}
	}
}

// GET /stats must attribute requests to schedulers by canonical registry
// name, counting hits and misses alike and folding aliases together.
func TestStatsPerScheduler(t *testing.T) {
	_, ts := startServer(t, Config{})
	post := func(scheduler string, eps int) {
		t.Helper()
		req := testRequest(t)
		req.Scheduler = scheduler
		req.Epsilon = eps
		resp, data := postSchedule(t, ts.URL, marshalRequest(t, req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", scheduler, resp.StatusCode, data)
		}
	}
	post("ftsa", 1)
	post("FTSA", 1) // cache hit, same canonical name
	post("mc-ftsa", 1)
	post("MC-FTSA", 1) // alias, folds into mcftsa
	post("ftsa-ins", 1)
	post("heft", 0)

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	want := map[string]uint64{"ftsa": 2, "mcftsa": 2, "ftsa-ins": 1, "heft": 1}
	for name, n := range want {
		if st.SchedulerRequests[name] != n {
			t.Errorf("scheduler_requests[%q] = %d, want %d (all: %v)",
				name, st.SchedulerRequests[name], n, st.SchedulerRequests)
		}
	}
	if _, ok := st.SchedulerRequests["ftbar"]; ok {
		t.Errorf("scheduler_requests contains never-requested ftbar: %v", st.SchedulerRequests)
	}
}

func TestScheduleMethodNotAllowed(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /schedule = %d, want 405", resp.StatusCode)
	}
}

func TestScheduleBodyTooLarge(t *testing.T) {
	_, ts := startServer(t, Config{MaxBodyBytes: 64})
	resp, _ := postSchedule(t, ts.URL, marshalRequest(t, testRequest(t)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestScheduleMaxTasks(t *testing.T) {
	_, ts := startServer(t, Config{MaxTasks: 2})
	resp, data := postSchedule(t, ts.URL, marshalRequest(t, testRequest(t)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("unhelpful error body: %s", data)
	}
}

// Saturate a 1-worker/1-slot server with a blocking scheduler stub: the
// third concurrent request must shed with 429 instead of queuing unbounded.
func TestScheduleBackpressure429(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 1, Queue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.schedule = func(req *ScheduleRequest) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("{}\n"), nil
	}

	// Three requests with distinct fingerprints so none is served from cache.
	distinct := make([][]byte, 3)
	for i := range distinct {
		req := testRequest(t)
		req.Seed = int64(i + 1)
		distinct[i] = marshalRequest(t, req)
	}

	type outcome struct {
		status int
	}
	results := make(chan outcome, 2)
	// Request 1 occupies the worker.
	go func() {
		resp, _ := postSchedule(t, ts.URL, distinct[0])
		results <- outcome{resp.StatusCode}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up request 1")
	}
	// Request 2 occupies the queue slot.
	go func() {
		resp, _ := postSchedule(t, ts.URL, distinct[1])
		results <- outcome{resp.StatusCode}
	}()
	waitFor(t, func() bool { return srv.pool.QueueDepth() == 1 })

	// Request 3 must be rejected immediately.
	resp, data := postSchedule(t, ts.URL, distinct[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.status != http.StatusOK {
				t.Fatalf("admitted request finished with %d", r.status)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted requests never finished")
		}
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// The queue has drained, so the instantaneous depth is 0 again — but
	// the high-water mark must still show the full backlog this run hit.
	// Without it a post-run /stats reads as if the server never queued,
	// which is exactly the misleading capacity signal the mark fixes.
	if st.QueueDepth != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", st.QueueDepth)
	}
	if st.QueueHighWater != 1 {
		t.Fatalf("queue_high_water = %d, want 1 (queue capacity was 1 and it filled)", st.QueueHighWater)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScheduleInternalError(t *testing.T) {
	srv, ts := startServer(t, Config{})
	srv.schedule = func(req *ScheduleRequest) ([]byte, error) {
		return nil, errors.New("boom")
	}
	resp, data := postSchedule(t, ts.URL, marshalRequest(t, testRequest(t)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("unhelpful 500 body: %s", data)
	}
	// A failed run must not poison the cache.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheEntries != 0 || st.CacheMisses != 0 {
		t.Fatalf("failed request left cache state: %+v", st)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	var out map[string]string
	getJSON(t, ts.URL+"/healthz", &out)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
}

// Nothing computed for one miss is kept for the next: a miss on an instance
// the server has already scheduled under other parameters is answered with
// the bytes a server that never saw that instance answers.
func TestSameInstanceMissesIndependent(t *testing.T) {
	_, seen := startServer(t, Config{})
	_, fresh := startServer(t, Config{})
	reqA := testRequest(t) // ftsa eps=1
	reqB := testRequest(t)
	reqB.Epsilon = 2 // distinct response fingerprint, same instance
	postSchedule(t, seen.URL, marshalRequest(t, reqA))
	resp, got := postSchedule(t, seen.URL, marshalRequest(t, reqB))
	if status := resp.Header.Get(CacheStatusHeader); resp.StatusCode != http.StatusOK || status != "miss" {
		t.Fatalf("same-instance request under another ε: %d, cache %q, want 200 miss", resp.StatusCode, status)
	}
	if _, want := postSchedule(t, fresh.URL, marshalRequest(t, reqB)); !bytes.Equal(got, want) {
		t.Fatalf("same-instance miss differs from a fresh server's:\nseen:  %s\nfresh: %s", got, want)
	}
}
