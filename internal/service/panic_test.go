package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// faultyScheduler makes srv panic, on demand, where a scheduler bug met on a
// pathological instance would: inside the computation a pool worker runs for
// a request. While armed, a request naming scheduler waits for release() and
// panics; every other request, and every request once disarm() is called,
// takes the server's real path. entered counts the runs that panicked. (A
// scheduler registered for the purpose would reach every test of the binary:
// the registry is process-global and never shrinks, and /tune sweeps it.)
func faultyScheduler(t *testing.T, srv *Server, scheduler string) (entered *atomic.Int32, release, disarm func()) {
	var armed atomic.Bool
	armed.Store(true)
	entered = new(atomic.Int32)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	real := srv.schedule
	srv.schedule = func(req *ScheduleRequest) ([]byte, error) {
		if armed.Load() && req.Scheduler == scheduler {
			entered.Add(1)
			<-gate
			panic("faulty scheduler: armed")
		}
		return real(req)
	}
	return entered, release, func() { armed.Store(false) }
}

func checkConservation(t *testing.T, s *Server, wantRequests, want5xx uint64) {
	t.Helper()
	var st Stats
	if err := json.Unmarshal(doServer(s, http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	served := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors + st.CancelledRequests
	if st.Requests != wantRequests || served != st.Requests || st.InternalErrors != want5xx {
		t.Fatalf("requests %d (want %d) = hits %d + misses %d + 4xx %d + 5xx %d (want %d) + cancelled %d = %d",
			st.Requests, wantRequests, st.CacheHits, st.CacheMisses, st.ClientErrors, st.InternalErrors, want5xx,
			st.CancelledRequests, served)
	}
}

// TestSchedulerPanicFailsTheFlight: a scheduler that panics on a pool worker
// costs the requests that asked for it a 500 naming the request, and nothing
// else — the leader and every singleflight follower are answered, the
// counters conserve, nothing is cached (the same body is computed again once
// the scheduler behaves), and the process keeps serving.
func TestSchedulerPanicFailsTheFlight(t *testing.T) {
	const m = 8
	srv, ts := startServer(t, Config{Workers: 2, Queue: m})
	req := testRequest(t)
	req.Scheduler = "ftbar"
	body := marshalJSON(t, req)
	fp := RequestFingerprint(req)
	entered, release, disarm := faultyScheduler(t, srv, "ftbar")

	type outcome struct {
		status int
		body   []byte
	}
	results := make(chan outcome, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/schedule", body)
			results <- outcome{resp.StatusCode, data}
		}()
	}
	// Panic only once the leader is inside the scheduler and the other m-1
	// requests are parked on its flight.
	waitFor(t, func() bool { return entered.Load() == 1 && srv.flightWaiters(fp) == m-1 })
	release()
	wg.Wait()
	close(results)
	want := fmt.Sprintf("panic computing request %x: faulty scheduler: armed", fp[:4])
	for r := range results {
		var e ErrorResponse
		if err := json.Unmarshal(r.body, &e); err != nil || r.status != http.StatusInternalServerError || !strings.Contains(e.Error, want) {
			t.Fatalf("status %d body %s, want a 500 carrying %q", r.status, r.body, want)
		}
	}
	if got := entered.Load(); got != 1 {
		t.Fatalf("%d identical requests ran the scheduler %d times, want 1", m, got)
	}
	checkConservation(t, srv, m, m)
	if srv.flightWaiters(fp) != -1 {
		t.Fatal("the failed flight was not retired")
	}

	// The worker survived and the failure was not cached: another scheduler
	// is served, and the same body is a miss, then a hit, once disarmed.
	other := testRequest(t)
	if resp, data := postJSON(t, ts.URL+"/schedule", marshalJSON(t, other)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: %d %s", resp.StatusCode, data)
	}
	disarm()
	for _, wantCache := range []string{"miss", "hit"} {
		resp, data := postJSON(t, ts.URL+"/schedule", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheStatusHeader) != wantCache {
			t.Fatalf("same body once disarmed: %d cache=%q %s, want 200 %s",
				resp.StatusCode, resp.Header.Get(CacheStatusHeader), data, wantCache)
		}
	}
	checkConservation(t, srv, m+3, m)
}

// TestSchedulerPanicInBatch covers the other job that runs schedulers on the
// pool: the batch fails whole with a 500 naming the item's request, every
// item accounted for, and the server keeps serving.
func TestSchedulerPanicInBatch(t *testing.T) {
	srv := New(Config{Workers: 2})
	t.Cleanup(srv.Close)
	_, release, _ := faultyScheduler(t, srv, "ftbar")
	release()

	g, p, cm := testInstance(t, "diamond")
	batch := marshalJSON(t, &BatchRequest{Instance: Instance{Graph: g, Platform: p, Costs: cm},
		Requests: []BatchItem{{Scheduler: "ftsa", Epsilon: 1}, {Scheduler: "ftbar", Epsilon: 1}}})
	rec := doServer(srv, http.MethodPost, "/schedule/batch", batch)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "requests[1]") ||
		!strings.Contains(rec.Body.String(), "panic computing request") {
		t.Fatalf("batch with a panicking item: %d %s", rec.Code, rec.Body.String())
	}
	checkConservation(t, srv, 2, 2)
	if rec := doServer(srv, http.MethodPost, "/schedule", marshalJSON(t, testRequest(t))); rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: %d %s", rec.Code, rec.Body.String())
	}
}
