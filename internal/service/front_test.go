package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ftsched/internal/stats"
	"ftsched/internal/workload"
)

// docExamples extracts the runnable `curl … -d '{…}'` request bodies of the
// cached endpoints from docs/API.md (the ones that elide the instance with
// "..." are not runnable as printed).
func docExamples(t testing.TB) (paths []string, bodies [][]byte) {
	t.Helper()
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?s)curl -s http://localhost:8080(/schedule|/evaluate|/tune) -d '(\{.*?\n\})'`)
	for _, m := range re.FindAllSubmatch(raw, -1) {
		if !bytes.Contains(m[2], []byte("...")) {
			paths = append(paths, string(m[1]))
			bodies = append(bodies, m[2])
		}
	}
	if len(bodies) < 5 {
		t.Fatalf("found %d runnable curl examples in docs/API.md, expected at least 5", len(bodies))
	}
	return paths, bodies
}

// goldenBodies are the registry-golden configurations (the ones
// internal/schedulers/testdata pins byte for byte) on the golden instance —
// paper-sized, so the bodies are the ~85 KB the front index exists for.
func goldenBodies(t testing.TB) [][]byte {
	t.Helper()
	inst, err := workload.NewInstance(rand.New(rand.NewSource(42)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, v := range []struct {
		scheduler, policy string
		epsilon           int
		seed              int64
	}{
		{"ftsa", "", 2, 0}, {"FTSA", "", 1, 7},
		{"mcftsa", "", 2, 0}, {"mc-ftsa", "bottleneck", 2, 0},
		{"ftbar", "", 2, 0}, {"ftbar", "", 1, 7},
		{"heft", "", 0, 0}, {"heft", "noinsertion", 0, 0},
	} {
		data, err := json.Marshal(&ScheduleRequest{
			Instance:  Instance{Graph: inst.Graph, Platform: inst.Platform, Costs: inst.Costs},
			Scheduler: v.scheduler, Policy: v.policy, Epsilon: v.epsilon, Seed: v.seed,
			IncludeSchedule: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
	}
	return bodies
}

// fuzzCorpus is every FuzzDecodePayload input: the in-source seeds and the
// regression files under testdata/fuzz.
func fuzzCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	for _, s := range fuzzSeedBodies {
		corpus = append(corpus, []byte(s))
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodePayload/*")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^\[\]byte\((".*")\)$`)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m := re.FindSubmatch(raw)
		if m == nil {
			t.Fatalf("%s: not a []byte corpus entry", f)
		}
		var s string
		if _, err := fmt.Sscanf(string(m[1]), "%q", &s); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, []byte(s))
	}
	return corpus
}

// countersOf reads /stats, checks it conserves, and projects the counters
// the front index must replay exactly.
func countersOf(t *testing.T, s *Server) Stats {
	t.Helper()
	st := conserves(t, s)
	return Stats{
		Requests: st.Requests, EvaluateRequests: st.EvaluateRequests, TuneRequests: st.TuneRequests,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, HitRate: st.HitRate, CacheEntries: st.CacheEntries,
		SchedulerRequests: st.SchedulerRequests, ClientErrors: st.ClientErrors, InternalErrors: st.InternalErrors,
		Latency: stats.Summary{Count: st.Latency.Count},
	}
}

func conserves(t *testing.T, s *Server) Stats {
	t.Helper()
	var st Stats
	if err := json.Unmarshal(doServer(s, http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if sum := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors + st.CancelledRequests; st.Requests != sum {
		t.Fatalf("/stats does not conserve: requests %d != %d hits + %d misses + %d 4xx + %d 5xx + %d cancelled",
			st.Requests, st.CacheHits, st.CacheMisses, st.ClientErrors, st.InternalErrors, st.CancelledRequests)
	}
	if st.BodyHits > st.CacheHits {
		t.Fatalf("body_hits %d exceeds cache_hits %d", st.BodyHits, st.CacheHits)
	}
	return st
}

// TestFrontIndexDifferential: whatever the body — the documented examples,
// the registry goldens, every fuzz corpus entry, against every cached
// endpoint — its first, second and third POST return the same status,
// headers and bytes, and the counters end up exactly where the decode path
// alone puts them. The reference server sees each repeat re-spelled with
// trailing newlines, so its front index never matches and every one of its
// requests is decoded.
func TestFrontIndexDifferential(t *testing.T) {
	type probe struct {
		path string
		body []byte
	}
	var probes []probe
	paths, bodies := docExamples(t)
	for i := range bodies {
		probes = append(probes, probe{paths[i], bodies[i]})
	}
	for _, b := range goldenBodies(t) {
		probes = append(probes, probe{"/schedule", b})
	}
	mustServe := len(probes) // the examples and the goldens are all well-formed
	for _, b := range fuzzCorpus(t) {
		for _, ep := range endpoints {
			if ep.cached {
				probes = append(probes, probe{ep.path, b})
			}
		}
	}

	cfg := Config{}
	srv, ref := New(cfg), New(cfg)
	t.Cleanup(srv.Close)
	t.Cleanup(ref.Close)
	const repeats = 4
	var wantBodyHits uint64
	seen := make(map[string]bool)
	for pi, p := range probes {
		first := doServer(srv, http.MethodPost, p.path, p.body)
		if pi < mustServe && first.Code != http.StatusOK {
			t.Fatalf("probe %d (%s): %d %s", pi, p.path, first.Code, first.Body.String())
		}
		dup := seen[p.path+string(p.body)]
		seen[p.path+string(p.body)] = true
		for k := 1; k < repeats; k++ {
			rec := doServer(srv, http.MethodPost, p.path, p.body)
			if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("probe %d (%s) POST %d: %d %q, first POST: %d %q",
					pi, p.path, k+1, rec.Code, rec.Body.String(), first.Code, first.Body.String())
			}
			wantHeader := first.Header().Clone()
			if first.Code == http.StatusOK {
				wantHeader.Set(CacheStatusHeader, "hit")
			}
			if !reflect.DeepEqual(rec.Header(), wantHeader) {
				t.Fatalf("probe %d (%s) POST %d: headers %v, want %v", pi, p.path, k+1, rec.Header(), wantHeader)
			}
		}
		if first.Code == http.StatusOK && !dup {
			// Admitted when first served as a hit; front hits from then on.
			wantBodyHits += repeats - 1
			if first.Header().Get(CacheStatusHeader) == "miss" {
				wantBodyHits--
			}
		} else if first.Code == http.StatusOK {
			wantBodyHits += repeats
		}
		for k := 0; k < repeats; k++ {
			respelled := append(append([]byte(nil), p.body...), bytes.Repeat([]byte("\n"), pi*repeats+k+1)...)
			if rec := doServer(ref, http.MethodPost, p.path, respelled); rec.Code != first.Code {
				t.Fatalf("probe %d (%s): reference answered %d, server %d", pi, p.path, rec.Code, first.Code)
			}
		}
	}

	got, want := conserves(t, srv), conserves(t, ref)
	if want.BodyHits != 0 {
		t.Fatalf("the reference server answered %d requests from its front index; it must decode all", want.BodyHits)
	}
	if got.BodyHits != wantBodyHits {
		t.Fatalf("body_hits = %d, want %d", got.BodyHits, wantBodyHits)
	}
	if g, w := countersOf(t, srv), countersOf(t, ref); !reflect.DeepEqual(g, w) {
		t.Fatalf("counters diverge from the decode path:\n front: %+v\ndecode: %+v", g, w)
	}
	if got.Requests != uint64(len(probes)*repeats) {
		t.Fatalf("requests = %d, want %d", got.Requests, len(probes)*repeats)
	}
}

// TestFrontIndexSpellings: two spellings of one request — whitespace, field
// order, an explicit zero seed — are two aliases of one cache entry, and
// both get its bytes.
func TestFrontIndexSpellings(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	req := testRequest(t)
	compact := marshalRequest(t, req)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(compact, &fields); err != nil {
		t.Fatal(err)
	}
	respelled := []byte(fmt.Sprintf("{\n  \"seed\": 0, \"epsilon\": %s,\n  \"scheduler\": %s,\n  \"costs\": %s, \"platform\": %s,\n  \"graph\": %s\n}\n",
		fields["epsilon"], fields["scheduler"], fields["costs"], fields["platform"], fields["graph"]))

	miss := doServer(srv, http.MethodPost, "/schedule", compact)
	if miss.Code != http.StatusOK || miss.Header().Get(CacheStatusHeader) != "miss" {
		t.Fatalf("first spelling: %d %s", miss.Code, miss.Body.String())
	}
	for i, body := range [][]byte{respelled, respelled, compact, compact} {
		rec := doServer(srv, http.MethodPost, "/schedule", body)
		if rec.Code != http.StatusOK || rec.Header().Get(CacheStatusHeader) != "hit" {
			t.Fatalf("POST %d: %d cache=%q", i+2, rec.Code, rec.Header().Get(CacheStatusHeader))
		}
		if !bytes.Equal(rec.Body.Bytes(), miss.Body.Bytes()) {
			t.Fatalf("POST %d returned different bytes than the entry's miss", i+2)
		}
	}
	st := conserves(t, srv)
	// respelled: canonical hit, front hit; compact: canonical hit, front hit.
	if st.CacheEntries != 1 || st.CacheMisses != 1 || st.CacheHits != 4 || st.BodyHits != 2 {
		t.Fatalf("entries=%d misses=%d hits=%d body_hits=%d, want 1/1/4/2",
			st.CacheEntries, st.CacheMisses, st.CacheHits, st.BodyHits)
	}
	if n := srv.front.Len(); n != 2 {
		t.Fatalf("front index holds %d aliases, want 2", n)
	}
}

// seededBodies are n /schedule requests differing only in their seed.
func seededBodies(t *testing.T, n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		req := testRequest(t)
		req.Seed = int64(i + 1)
		bodies[i] = marshalRequest(t, req)
	}
	return bodies
}

// TestFrontIndexEviction: an alias whose entry was evicted falls back to
// the decode path, which recomputes the same bytes, and the index never
// outgrows the cache it points into.
func TestFrontIndexEviction(t *testing.T) {
	const entries = 2
	srv := New(Config{CacheEntries: entries, CacheShards: 1})
	t.Cleanup(srv.Close)
	bodies := seededBodies(t, 12)
	post := func(i int) *httptest.ResponseRecorder {
		t.Helper()
		rec := doServer(srv, http.MethodPost, "/schedule", bodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if n := srv.front.Len(); n > entries {
			t.Fatalf("front index holds %d aliases over a %d-entry cache", n, entries)
		}
		return rec
	}
	first := post(0)
	post(0) // canonical hit: admitted
	if rec := post(0); rec.Header().Get(CacheStatusHeader) != "hit" || srv.bodyHits.Load() != 1 {
		t.Fatalf("third POST: cache=%q body_hits=%d, want a front hit", rec.Header().Get(CacheStatusHeader), srv.bodyHits.Load())
	}
	post(1)
	post(2) // evicts body 0's entry; its alias is now stale
	again := post(0)
	if again.Header().Get(CacheStatusHeader) != "miss" {
		t.Fatalf("evicted entry served as %q, want a recomputed miss", again.Header().Get(CacheStatusHeader))
	}
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("recomputed response differs from the evicted one")
	}
	if srv.bodyHits.Load() != 1 {
		t.Fatalf("body_hits = %d after a stale alias, want it unchanged at 1", srv.bodyHits.Load())
	}
	// Churn: every body earns an alias, far more bodies than entries.
	for round := 0; round < 3; round++ {
		for i := range bodies {
			post(i)
			post(i)
			post(i)
		}
	}
	conserves(t, srv)
}

// TestFrontIndexOversizedBody pins what a body past the limit is answered
// with: the read error alone, 413, whatever the bytes before the limit were
// — a syntax error in the part that was read is never looked at.
func TestFrontIndexOversizedBody(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 64})
	t.Cleanup(srv.Close)
	valid := marshalRequest(t, testRequest(t))
	if rec := doServer(srv, http.MethodPost, "/schedule", valid); rec.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(rec.Body.String(), "decoding request: http: request body too large") {
		t.Fatalf("oversized body: %d %s", rec.Code, rec.Body.String())
	}
	broken := append([]byte(`{"graph": nope, `), valid...)
	if rec := doServer(srv, http.MethodPost, "/schedule", broken); rec.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("oversized body with an early syntax error: %d %s", rec.Code, rec.Body.String())
	}
	if st := conserves(t, srv); st.ClientErrors != 2 {
		t.Fatalf("client_errors = %d, want 2", st.ClientErrors)
	}
}

// TestFrontIndexRaceSoak races identical bodies through admission, front
// hits, eviction of the entries the aliases point at, and singleflight, on
// a cache too small for the working set. Every response must be the body's
// one true answer and the counters must conserve. Run under -race.
func TestFrontIndexRaceSoak(t *testing.T) {
	srv := New(Config{CacheEntries: 4, CacheShards: 2, Queue: 256})
	t.Cleanup(srv.Close)
	bodies := seededBodies(t, 10)
	want := make([][]byte, len(bodies))
	fresh := New(Config{})
	for i, b := range bodies {
		want[i] = doServer(fresh, http.MethodPost, "/schedule", b).Body.Bytes()
	}
	fresh.Close()

	const workers, perWorker = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < perWorker; k++ {
				// Skewed: low indices repeat enough to be aliased, the tail
				// keeps evicting them.
				i := min(rng.Intn(len(bodies)), rng.Intn(len(bodies)))
				rec := doServer(srv, http.MethodPost, "/schedule", bodies[i])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("body %d: %d %q", i, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := conserves(t, srv)
	if st.Requests != workers*perWorker || st.BodyHits == 0 || st.CacheMisses <= uint64(len(bodies)) {
		t.Fatalf("requests=%d body_hits=%d misses=%d: the soak did not exercise front hits and evictions",
			st.Requests, st.BodyHits, st.CacheMisses)
	}
	if n := srv.front.Len(); n > 4 {
		t.Fatalf("front index holds %d aliases over a 4-entry cache", n)
	}
}

// TestServeDecodedMatchesServeHTTP: a request entering through the decoded
// hand-off is answered and counted exactly like the same bytes entering
// through the mux — including the server's own guards — and admits the alias
// under which a later raw repeat is answered from the front index.
func TestServeDecodedMatchesServeHTTP(t *testing.T) {
	cfg := Config{MaxTrials: 60}
	raw, handed := New(cfg), New(cfg)
	t.Cleanup(raw.Close)
	t.Cleanup(handed.Close)
	over := testEvaluateRequest(t)
	over.Trials = 61
	probes := []struct {
		ep   *Endpoint
		body []byte
	}{
		{endpoints[0], marshalRequest(t, testRequest(t))},
		{endpoints[2], marshalJSON(t, testEvaluateRequest(t))},
		{endpoints[2], marshalJSON(t, over)}, // refused by the server's MaxTrials
		{endpoints[3], marshalJSON(t, testTuneRequest(t))},
	}
	for pi, p := range probes {
		for round := 0; round < 2; round++ {
			want := doServer(raw, http.MethodPost, p.ep.path, p.body)
			d, err := p.ep.Decode(p.body)
			if err != nil {
				t.Fatal(err)
			}
			got := httptest.NewRecorder()
			handed.ServeDecoded(got, httptest.NewRequest(http.MethodPost, p.ep.path, nil), d, p.ep.Digest(p.body))
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("probe %d round %d: handed off %d %v %q, through the mux %d %v %q", pi, round,
					got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
			}
		}
		// Third sighting, raw on both: a front hit on both.
		want, got := doServer(raw, http.MethodPost, p.ep.path, p.body), doServer(handed, http.MethodPost, p.ep.path, p.body)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("probe %d raw repeat: %d %q, want %d %q", pi, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
	if g, w := conserves(t, handed), conserves(t, raw); g.BodyHits != 3 || w.BodyHits != 3 {
		t.Fatalf("body_hits: handed-off server %d, raw server %d, want 3 each", g.BodyHits, w.BodyHits)
	}
	if g, w := countersOf(t, handed), countersOf(t, raw); !reflect.DeepEqual(g, w) {
		t.Fatalf("counters diverge:\nhanded off: %+v\n       raw: %+v", g, w)
	}
}

// TestBodyIndex pins the front index's own contract: lazily grown, bounded
// by its capacity at any shard count, overwrite in place, delete.
func TestBodyIndex(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{{1, 16}, {2, 16}, {7, 4}, {100, 16}, {4096, 16}} {
		x := NewFrontIndex[int](tc.capacity, tc.shards)
		for i := range x.shards {
			if x.shards[i].index != nil || x.shards[i].ents != nil {
				t.Fatalf("capacity %d: shard %d allocated a map before any Put", tc.capacity, i)
			}
		}
		if _, ok := x.Get(BodyDigest{1, 1}); ok || x.Len() != 0 {
			t.Fatal("empty index answered a Get")
		}
		for i := 0; i < 3*tc.capacity+5; i++ {
			d := BodyDigest{uint64(i), uint64(i) * 0x9e3779b97f4a7c15}
			x.Put(d, i)
			if v, ok := x.Get(d); !ok || v != i {
				t.Fatalf("capacity %d: Get after Put = %d, %v", tc.capacity, v, ok)
			}
			if x.Len() > tc.capacity {
				t.Fatalf("capacity %d over %d shards: index grew to %d", tc.capacity, tc.shards, x.Len())
			}
		}
		d := BodyDigest{42, 42}
		x.Put(d, 1)
		n := x.Len()
		x.Put(d, 2)
		if v, _ := x.Get(d); v != 2 || x.Len() != n {
			t.Fatalf("overwrite: value %d, len %d → %d", v, n, x.Len())
		}
		x.Delete(d)
		if _, ok := x.Get(d); ok || x.Len() != n-1 {
			t.Fatal("Delete left the entry behind")
		}
	}
}

// BenchmarkHandleSchedule times the whole handler on a paper-sized body:
// a byte-identical repeat (front index), a re-spelled repeat (decode, then a
// canonical hit), a never-seen seed on the same instance (decode from pooled
// storage, solve, cache write) and a never-seen instance — the last edge's
// volume changed, so that the graph decodes again.
func BenchmarkHandleSchedule(b *testing.B) {
	body := benchBody(b)
	post := func(srv *Server, body []byte, want string) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body))
		srv.ServeHTTP(rec, r)
		if got := rec.Header().Get(CacheStatusHeader); rec.Code != http.StatusOK || got != want {
			b.Fatalf("status %d cache %q, want 200 %q", rec.Code, got, want)
		}
	}
	b.Run("repeat", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		post(srv, body, "miss")
		post(srv, body, "hit")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(srv, body, "hit")
		}
	})
	b.Run("respelled", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		post(srv, body, "miss")
		spelled := make([]byte, 0, len(body)+b.N+1)
		spelled = append(spelled, body...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spelled = append(spelled, '\n')
			post(srv, spelled, "hit")
		}
	})
	b.Run("miss", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		// Splice a fresh seed into the request's tail: a new fingerprint each
		// iteration.
		head := bytes.TrimSuffix(body, []byte("}"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(srv, fmt.Appendf(nil, `%s,"seed":%d}`, head, i+1), "miss")
		}
	})
	b.Run("miss-new-instance", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		before, after := splitLastVolume(b, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(srv, fmt.Appendf(nil, "%s%d%s", before, i+1, after), "miss")
		}
	})
}

// splitLastVolume cuts body around the value of its last edge volume.
func splitLastVolume(b testing.TB, body []byte) (before, after []byte) {
	key := []byte(`"volume":`)
	at := bytes.LastIndex(body, key) + len(key)
	end := bytes.IndexAny(body[at:], ",}")
	if at < len(key) || end < 0 {
		b.Fatal("no edge volume in the body")
	}
	return body[:at], body[at+end:]
}
