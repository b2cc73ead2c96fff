package service

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestLatencyCellsByEndpoint: each endpoint × cache status gets its own cell
// on its first sample, and the overall summary is the exact merge of the
// cells.
func TestLatencyCellsByEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	schedule := marshalRequest(t, testRequest(t))
	for _, c := range []struct {
		path  string
		body  []byte
		cache string
	}{
		{"/schedule", schedule, "miss"},
		{"/schedule", schedule, "hit"},
		{"/evaluate", marshalJSON(t, testEvaluateRequest(t)), "miss"},
	} {
		if rec := doServer(s, http.MethodPost, c.path, c.body); rec.Code != http.StatusOK ||
			rec.Header().Get(CacheStatusHeader) != c.cache {
			t.Fatalf("POST %s: %d cache=%q, want 200 %s", c.path, rec.Code, rec.Header().Get(CacheStatusHeader), c.cache)
		}
	}
	st := conserves(t, s)
	cells, maxMs := 0, 0.0
	for path, byStatus := range st.LatencyByEndpoint {
		for status, sum := range byStatus {
			cells++
			if sum.Count != 1 {
				t.Errorf("cell %s %s counted %d, want 1", path, status, sum.Count)
			}
			maxMs = max(maxMs, sum.MaxMs)
		}
	}
	if _, ok := st.LatencyByEndpoint["/evaluate"]["miss"]; cells != 3 || !ok {
		t.Fatalf("latency_by_endpoint = %+v, want /schedule hit+miss and /evaluate miss", st.LatencyByEndpoint)
	}
	if st.Latency.Count != 3 || st.Latency.MaxMs != maxMs {
		t.Fatalf("latency = %+v, want count 3 and max_ms %g", st.Latency, maxMs)
	}
}

// TestLatencyKeepsEveryExtreme: the instrument summarizes every sample since
// start, so a slow first request is still the max, and still in the mean,
// thousands of requests later.
func TestLatencyKeepsEveryExtreme(t *testing.T) {
	var l Latency
	const n = 2000
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := time.Duration(1000+i) * time.Microsecond
		if i == 0 {
			d = 5 * time.Second
		}
		sum += d
		l.Record("/schedule", "hit", d)
	}
	all, _ := l.Summaries()
	if all.Count != n || all.MaxMs != 5000 {
		t.Fatalf("summary %+v, want count %d and max_ms 5000", all, n)
	}
	if want := float64(sum) / n * 1e-6; all.MeanMs != want {
		t.Fatalf("mean_ms %v, want %v", all.MeanMs, want)
	}
}

// TestLatencyConcurrent: writers and readers share one instrument, and no
// sample is lost.
func TestLatencyConcurrent(t *testing.T) {
	var l Latency
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record("/schedule", []string{"hit", "miss"}[i%2], time.Duration(i))
				if i%100 == 0 {
					l.Summaries()
				}
			}
		}()
	}
	wg.Wait()
	all, by := l.Summaries()
	if all.Count != writers*each || by["/schedule"]["hit"].Count != writers*each/2 {
		t.Fatalf("counted %d (%d hits), want %d (%d)", all.Count, by["/schedule"]["hit"].Count, writers*each, writers*each/2)
	}
}
