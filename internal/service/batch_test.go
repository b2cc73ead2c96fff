package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// testBatchRequest builds a well-formed batch over the diamond instance:
// four parameter sets of which two are identical, covering two schedulers
// and a reliability-bound item.
func testBatchRequest(t *testing.T) *BatchRequest {
	t.Helper()
	g, p, cm := testInstance(t, "diamond")
	return &BatchRequest{
		Instance: Instance{Graph: g, Platform: p, Costs: cm},
		Requests: []BatchItem{
			{Scheduler: "ftsa", Epsilon: 1},
			{Scheduler: "mcftsa", Epsilon: 1, Seed: 3},
			{Scheduler: "ftsa", Epsilon: 1}, // duplicate of item 0
			{Scheduler: "ftsa", Epsilon: 2, Lambda: 0.01},
		},
	}
}

func postBatch(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/schedule/batch", body)
}

// TestBatchMatchesIndividualResponses is the batch contract: every item's
// embedded response carries exactly the bytes a standalone /schedule for the
// same parameters returns (modulo the newline JSON re-compaction strips),
// duplicates within the batch are served from one computation, and the
// cache the batch populates is the same cache /schedule reads.
func TestBatchMatchesIndividualResponses(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := testBatchRequest(t)

	resp, data := postBatch(t, ts.URL, marshalJSON(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(CacheStatusHeader); got != "miss" {
		t.Fatalf("first batch cache status %q, want miss", got)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 4 || len(out.Items) != 4 {
		t.Fatalf("count=%d items=%d, want 4/4", out.Count, len(out.Items))
	}
	// 3 distinct parameter sets: the duplicate is a hit that shared its
	// twin's computation.
	if out.CacheMisses != 3 || out.CacheHits != 1 {
		t.Fatalf("batch misses=%d hits=%d, want 3/1", out.CacheMisses, out.CacheHits)
	}
	wantStatus := []string{"miss", "miss", "hit", "miss"}
	for i, item := range out.Items {
		if item.Cache != wantStatus[i] {
			t.Fatalf("item %d cache=%q, want %q", i, item.Cache, wantStatus[i])
		}
	}
	if !bytes.Equal(out.Items[0].Response, out.Items[2].Response) {
		t.Fatal("duplicate items received different bytes")
	}

	// Each embedded response must match the standalone endpoint byte for
	// byte (standalone bodies end in the newline the encoder strips when it
	// re-compacts the RawMessage).
	for i, it := range req.Requests {
		full := &ScheduleRequest{
			Instance:  req.Instance,
			Scheduler: it.Scheduler, Epsilon: it.Epsilon, Policy: it.Policy,
			Seed: it.Seed, Lambda: it.Lambda,
			IncludeGantt: it.IncludeGantt, IncludeSchedule: it.IncludeSchedule,
		}
		resp, single := postSchedule(t, ts.URL, marshalRequest(t, full))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standalone item %d: %d %s", i, resp.StatusCode, single)
		}
		// The batch already cached every item.
		if got := resp.Header.Get(CacheStatusHeader); got != "hit" {
			t.Fatalf("standalone item %d after batch: cache %q, want hit", i, got)
		}
		if want := bytes.TrimSuffix(single, []byte("\n")); !bytes.Equal(out.Items[i].Response, want) {
			t.Fatalf("item %d bytes differ from standalone /schedule:\nbatch:      %s\nstandalone: %s",
				i, out.Items[i].Response, want)
		}
	}

	// A repeated batch is all hits and byte-identical except the summary
	// counters, which are part of the contract: re-marshal with hit counts.
	resp2, data2 := postBatch(t, ts.URL, marshalJSON(t, req))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second batch: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(CacheStatusHeader); got != "hit" {
		t.Fatalf("all-hit batch cache status %q, want hit", got)
	}
	var out2 BatchResponse
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.CacheHits != 4 || out2.CacheMisses != 0 {
		t.Fatalf("second batch hits=%d misses=%d, want 4/0", out2.CacheHits, out2.CacheMisses)
	}
	for i := range out.Items {
		if !bytes.Equal(out.Items[i].Response, out2.Items[i].Response) {
			t.Fatalf("item %d bytes changed between batches", i)
		}
	}

	// Counter discipline across both batches plus the 4 standalone requests:
	// 12 logical requests, conservation exact.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.BatchRequests != 2 || st.BatchItems != 8 {
		t.Fatalf("batch_requests=%d batch_items=%d, want 2/8", st.BatchRequests, st.BatchItems)
	}
	if st.Requests != 12 {
		t.Fatalf("requests = %d, want 12 (2×4 batched + 4 standalone)", st.Requests)
	}
	if st.CacheMisses != 3 || st.CacheHits != 9 {
		t.Fatalf("hits=%d misses=%d, want 9/3", st.CacheHits, st.CacheMisses)
	}
	if st.SingleflightShared != 1 {
		t.Fatalf("singleflight_shared = %d, want 1 (the in-batch duplicate)", st.SingleflightShared)
	}
	if served := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors; served != st.Requests {
		t.Fatalf("conservation: %d served of %d requests", served, st.Requests)
	}
}

// TestBatchValidation pins the failure envelope: every malformed shape 400s
// as ONE request with a useful error, and the conservation invariant holds
// afterwards.
func TestBatchValidation(t *testing.T) {
	g, p, cm := testInstance(t, "diamond")
	ok := BatchItem{Scheduler: "ftsa", Epsilon: 1}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"malformed JSON", []byte(`{"graph": nope`), "decoding request"},
		{"unknown field", marshalJSON(t, map[string]any{
			"graph": g, "platform": p, "costs": cm, "requets": []BatchItem{ok}}), "requets"},
		{"no requests", marshalJSON(t, map[string]any{
			"graph": g, "platform": p, "costs": cm}), "no requests"},
		{"missing instance", marshalJSON(t, map[string]any{
			"requests": []BatchItem{ok}}), "graph"},
		{"invalid item", marshalJSON(t, map[string]any{
			"graph": g, "platform": p, "costs": cm,
			"requests": []BatchItem{ok, {Scheduler: "nope", Epsilon: 1}}}), "requests[1]"},
	}
	_, ts := startServer(t, Config{MaxBatchItems: 4})
	sent := 0
	for _, tc := range cases {
		resp, data := postBatch(t, ts.URL, tc.body)
		sent++
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || !bytes.Contains([]byte(e.Error), []byte(tc.want)) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}

	// Over the item limit: also one 400.
	over := map[string]any{"graph": g, "platform": p, "costs": cm,
		"requests": []BatchItem{ok, ok, ok, ok, ok}}
	resp, data := postBatch(t, ts.URL, marshalJSON(t, over))
	sent++
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("at most 4")) {
		t.Fatalf("over-limit batch: status %d body %s, want 400 naming the limit", resp.StatusCode, data)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != uint64(sent) || st.ClientErrors != uint64(sent) {
		t.Fatalf("requests=%d client_errors=%d, want %d each (one per rejected envelope)",
			st.Requests, st.ClientErrors, sent)
	}
	if st.BatchRequests != uint64(sent) || st.BatchItems != 0 {
		t.Fatalf("batch_requests=%d batch_items=%d, want %d/0", st.BatchRequests, st.BatchItems, sent)
	}
	if served := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors; served != st.Requests {
		t.Fatalf("conservation: %d served of %d requests", served, st.Requests)
	}
}

// TestBatchBackpressure429 saturates a 1-worker/1-slot pool and asserts a
// rejected batch accounts ALL its items: the conservation invariant must
// hold whether a 429 sheds one request or a whole envelope.
func TestBatchBackpressure429(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 1, Queue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.schedule = func(req *ScheduleRequest) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("{}\n"), nil
	}

	// Occupy the worker and the queue slot with distinct /schedule requests.
	for i := 0; i < 2; i++ {
		req := testRequest(t)
		req.Seed = int64(i + 1)
		body := marshalRequest(t, req)
		go func() {
			resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the blocking request")
	}
	waitFor(t, func() bool { return srv.pool.QueueDepth() == 1 })

	// The batch (4 items, all misses) must shed as one 429 covering all 4.
	resp, data := postBatch(t, ts.URL, marshalJSON(t, testBatchRequest(t)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 batch response missing Retry-After")
	}
	close(release)
	waitFor(t, func() bool {
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		return st.CacheMisses == 2
	})

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests != 6 {
		t.Fatalf("requests = %d, want 6 (2 schedule + 4 batched)", st.Requests)
	}
	if st.Rejected != 4 || st.ClientErrors != 4 {
		t.Fatalf("rejected=%d client_errors=%d, want 4/4 (every batched item)", st.Rejected, st.ClientErrors)
	}
	if served := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors; served != st.Requests {
		t.Fatalf("conservation: %d served of %d requests", served, st.Requests)
	}
}
