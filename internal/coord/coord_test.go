package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/service"
)

// diamondInstance is the docs/API.md example instance: 4 tasks, 3 procs.
const diamondInstance = `"graph": {
    "name": "diamond",
    "tasks": 4,
    "edges": [
      {"src": 0, "dst": 1, "volume": 1},
      {"src": 0, "dst": 2, "volume": 2},
      {"src": 1, "dst": 3, "volume": 1},
      {"src": 2, "dst": 3, "volume": 0.5}
    ]
  },
  "platform": {
    "procs": 3,
    "delay": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]
  },
  "costs": {
    "cost": [[1, 2, 1.5], [2, 1, 1], [1, 1, 2], [2, 1.5, 1]]
  }`

// scheduleBody builds a /schedule request over the diamond instance.
func scheduleBody(scheduler string, epsilon int, seed int64) []byte {
	return []byte(fmt.Sprintf(`{%s, "scheduler": %q, "epsilon": %d, "seed": %d}`,
		diamondInstance, scheduler, epsilon, seed))
}

// evaluateBody builds a /evaluate request over the diamond instance.
func evaluateBody(seed int64, trials int) []byte {
	return []byte(fmt.Sprintf(`{%s, "scheduler": "ftsa", "epsilon": 1, "seed": %d,
	  "trials": %d, "scenario": {"kind": "uniform", "crashes": 1}, "eval_seed": 7}`,
		diamondInstance, seed, trials))
}

// tuneBody builds a /tune request over the diamond instance.
func tuneBody(trials int) []byte {
	return []byte(fmt.Sprintf(`{%s, "trials": %d, "target": 0.9,
	  "scenario": {"kind": "uniform", "crashes": 1}, "eval_seed": 7}`,
		diamondInstance, trials))
}

// batchBody builds a /schedule/batch envelope over the diamond instance.
func batchBody(items string) []byte {
	return []byte(fmt.Sprintf(`{%s, "requests": [%s]}`, diamondInstance, items))
}

// missionBody builds a /missions request over the diamond instance.
func missionBody(scheduler string, epsilon int, policy string) []byte {
	p := ""
	if policy != "" {
		p = fmt.Sprintf(`, "mission_policy": %q`, policy)
	}
	return []byte(fmt.Sprintf(`{%s, "scheduler": %q, "epsilon": %d, "seed": 7,
	  "scenario": {"kind": "uniform", "crashes": 1}, "scenario_seed": 5%s}`,
		diamondInstance, scheduler, epsilon, p))
}

// newDeployment builds a coordinator over n in-process shards, all cleaned
// up with the test.
func newDeployment(t *testing.T, n int, cfg service.Config) (*Coordinator, []*service.Server) {
	t.Helper()
	shards := make([]*service.Server, n)
	handlers := make([]http.Handler, n)
	for i := range shards {
		shardCfg := cfg
		shardCfg.Shard = fmt.Sprintf("%d", i)
		shards[i] = service.New(shardCfg)
		handlers[i] = shards[i]
		t.Cleanup(shards[i].Close)
	}
	return New(handlers, cfg), shards
}

// do replays one request against a handler.
func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var r *bytes.Reader
	if body == nil {
		r = bytes.NewReader(nil)
	} else {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func coordStats(t *testing.T, c *Coordinator) Stats {
	t.Helper()
	rec := do(c, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d %s", rec.Code, rec.Body.String())
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRoutedPassthroughByteIdentical is the core sharding guarantee: for
// every POST endpoint, a sharded deployment serves byte-for-byte the
// responses a single server serves, and every repeat is a cache hit on both
// — the shard that owns a fingerprint owns it forever. The first sighting is
// decoded at the door and handed to the shard, the second likewise (and
// admitted to both front indexes when it comes back a hit), the third and
// fourth are routed and answered from the front indexes without a decode.
func TestRoutedPassthroughByteIdentical(t *testing.T) {
	single := service.New(service.Config{})
	t.Cleanup(single.Close)
	c, _ := newDeployment(t, 4, service.Config{})

	requests := []struct {
		path string
		body []byte
	}{
		{"/schedule", scheduleBody("ftsa", 1, 0)},
		{"/schedule", scheduleBody("mcftsa", 1, 3)},
		{"/schedule", scheduleBody("heft", 0, 0)},
		{"/evaluate", evaluateBody(0, 40)},
		{"/tune", tuneBody(24)},
	}
	for _, rq := range requests {
		for round, wantCache := range []string{"miss", "hit", "hit", "hit"} {
			sRec := do(single, http.MethodPost, rq.path, rq.body)
			cRec := do(c, http.MethodPost, rq.path, rq.body)
			if sRec.Code != http.StatusOK || cRec.Code != http.StatusOK {
				t.Fatalf("%s round %d: single=%d coord=%d (%s)", rq.path, round, sRec.Code, cRec.Code, cRec.Body.String())
			}
			if !bytes.Equal(sRec.Body.Bytes(), cRec.Body.Bytes()) {
				t.Fatalf("%s round %d: sharded response differs from single server:\nsingle: %s\ncoord:  %s",
					rq.path, round, sRec.Body.String(), cRec.Body.String())
			}
			for _, rec := range []*httptest.ResponseRecorder{sRec, cRec} {
				if got := rec.Header().Get(service.CacheStatusHeader); got != wantCache {
					t.Fatalf("%s round %d: cache status %q, want %q", rq.path, round, got, wantCache)
				}
			}
			if !reflect.DeepEqual(sRec.Header(), cRec.Header()) {
				t.Fatalf("%s round %d: sharded headers %v, single server %v", rq.path, round, cRec.Header(), sRec.Header())
			}
		}
	}
	var sSt service.Stats
	if err := json.Unmarshal(do(single, http.MethodGet, "/stats", nil).Body.Bytes(), &sSt); err != nil {
		t.Fatal(err)
	}
	cSt := coordStats(t, c)
	want := uint64(2 * len(requests))
	if sSt.BodyHits != want || cSt.Merged.BodyHits != want || cSt.Door.BodyHits != want {
		t.Fatalf("body_hits: single %d, merged %d, door %d, want %d each",
			sSt.BodyHits, cSt.Merged.BodyHits, cSt.Door.BodyHits, want)
	}
	// The decoded hand-off leaves the shards' counters where forwarded bytes
	// would have: the deployment's ledger is the single server's.
	if !reflect.DeepEqual(cSt.Merged.SchedulerRequests, sSt.SchedulerRequests) ||
		cSt.Merged.Requests != sSt.Requests || cSt.Merged.CacheHits != sSt.CacheHits ||
		cSt.Merged.CacheMisses != sSt.CacheMisses || cSt.Merged.EvaluateRequests != sSt.EvaluateRequests ||
		cSt.Merged.TuneRequests != sSt.TuneRequests || cSt.Merged.Latency.Count != sSt.Latency.Count {
		t.Fatalf("merged counters diverge from the single server:\nmerged: %+v\nsingle: %+v", cSt.Merged, sSt)
	}
}

// TestDoorGuardsStillApplyToHandoff: the shard's own limits are enforced on a
// request the door decoded for it, with the shard's message and counters.
func TestDoorGuardsStillApplyToHandoff(t *testing.T) {
	single := service.New(service.Config{MaxTrials: 10, MaxTasks: 100})
	t.Cleanup(single.Close)
	c, _ := newDeployment(t, 2, service.Config{MaxTrials: 10, MaxTasks: 100})
	for _, rq := range []struct {
		path string
		body []byte
	}{{"/evaluate", evaluateBody(0, 40)}, {"/tune", tuneBody(24)}} {
		for round := 0; round < 3; round++ {
			sRec, cRec := do(single, http.MethodPost, rq.path, rq.body), do(c, http.MethodPost, rq.path, rq.body)
			if cRec.Code != http.StatusBadRequest || !bytes.Equal(sRec.Body.Bytes(), cRec.Body.Bytes()) {
				t.Fatalf("%s round %d: %d %s, single server: %d %s", rq.path, round,
					cRec.Code, cRec.Body.String(), sRec.Code, sRec.Body.String())
			}
		}
	}
	st := coordStats(t, c)
	if st.Merged.ClientErrors != 6 || st.Merged.Requests != 6 || st.Door.Rejected != 0 || st.Door.BodyHits != 0 {
		t.Fatalf("merged requests=%d client_errors=%d, door rejected=%d body_hits=%d; want 6/6/0/0",
			st.Merged.Requests, st.Merged.ClientErrors, st.Door.Rejected, st.Door.BodyHits)
	}
}

// TestDoorRejectsMalformed pins the door contract: a body that cannot be
// decoded and fingerprinted is refused at the coordinator with the same
// status a standalone server would use, and NO shard ever sees it.
func TestDoorRejectsMalformed(t *testing.T) {
	c, shards := newDeployment(t, 2, service.Config{})
	cases := []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"malformed schedule", "/schedule", []byte(`{"graph": nope`), 400},
		{"empty evaluate", "/evaluate", []byte(``), 400},
		{"unknown field", "/tune", []byte(`{"trialz": 1}`), 400},
		{"unregistered scheduler", "/schedule", scheduleBody("nope", 1, 0), 400},
		{"empty batch", "/schedule/batch", batchBody(``), 400},
		{"invalid batch item", "/schedule/batch", batchBody(`{"scheduler": "heft", "epsilon": 2}`), 400},
	}
	for _, tc := range cases {
		rec := do(c, http.MethodPost, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		var e service.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: unhelpful error body %q", tc.name, rec.Body.String())
		}
	}
	st := coordStats(t, c)
	if st.Door.Rejected != uint64(len(cases)) || st.Door.Requests != uint64(len(cases)) {
		t.Fatalf("door requests=%d rejected=%d, want %d/%d", st.Door.Requests, st.Door.Rejected, len(cases), len(cases))
	}
	for i, s := range st.PerShard {
		if s.Requests != 0 {
			t.Fatalf("shard %d saw %d requests; malformed traffic must die at the door", i, s.Requests)
		}
	}
	// The shards never served anything, so the merged view is pure door
	// arithmetic — and it must still conserve.
	if st.Merged.Requests != uint64(len(cases)) || st.Merged.ClientErrors != uint64(len(cases)) {
		t.Fatalf("merged requests=%d client_errors=%d, want %d/%d",
			st.Merged.Requests, st.Merged.ClientErrors, len(cases), len(cases))
	}
	_ = shards
}

// TestDoorRefusesTrailingData: a valid request followed by anything but
// whitespace dies at the door with a 400 on every POST endpoint — the ']'
// and '}' tails were a 200 before the one decoder checked for the end of
// input — and neither a shard nor the door's front index ever sees it.
func TestDoorRefusesTrailingData(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	bodies := map[string][]byte{
		"/schedule":       scheduleBody("ftsa", 1, 0),
		"/evaluate":       evaluateBody(1, 8),
		"/tune":           tuneBody(8),
		"/schedule/batch": batchBody(`{"scheduler": "ftsa", "epsilon": 1}`),
		"/missions":       missionBody("ftsa", 1, ""),
	}
	refused := uint64(0)
	for path, body := range bodies {
		for _, tail := range []string{"]", "}", " ]garbage"} {
			for range 3 {
				rec := do(c, http.MethodPost, path, append(append([]byte(nil), body...), tail...))
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected data after the JSON body") {
					t.Fatalf("%s with tail %q: %d %s", path, tail, rec.Code, rec.Body.String())
				}
				refused++
			}
		}
	}
	st := coordStats(t, c)
	if st.Door.Rejected != refused || st.Door.Requests != refused || st.Door.BodyHits != 0 || c.front.Len() != 0 {
		t.Fatalf("door requests=%d rejected=%d body_hits=%d aliases=%d, want %d/%d/0/0",
			st.Door.Requests, st.Door.Rejected, st.Door.BodyHits, c.front.Len(), refused, refused)
	}
	if st.Merged.Requests != refused || st.Merged.ClientErrors != refused {
		t.Fatalf("merged requests=%d client_errors=%d, want %d/%d", st.Merged.Requests, st.Merged.ClientErrors, refused, refused)
	}
	for i, s := range st.PerShard {
		if s.Requests != 0 {
			t.Fatalf("shard %d saw %d requests; trailing data must die at the door", i, s.Requests)
		}
	}
}

// TestDoorBodyLimit: a body past the coordinator's limit 413s at the door.
func TestDoorBodyLimit(t *testing.T) {
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	c := New([]http.Handler{srv}, service.Config{MaxBodyBytes: 64})
	rec := do(c, http.MethodPost, "/schedule", scheduleBody("ftsa", 1, 0))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	// MaxTasks guard: the diamond has 4 tasks.
	c2 := New([]http.Handler{srv}, service.Config{MaxTasks: 2})
	rec = do(c2, http.MethodPost, "/schedule", scheduleBody("ftsa", 1, 0))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most 2") {
		t.Fatalf("MaxTasks guard: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestDoorBatchLimit: the door enforces MaxBatchItems itself. Splitting an
// oversized envelope across shards would hand every shard a sub-batch under
// its own limit — the deployment must not accept through division what one
// server would reject whole.
func TestDoorBatchLimit(t *testing.T) {
	shards := make([]http.Handler, 2)
	for i := range shards {
		srv := service.New(service.Config{MaxBatchItems: 3})
		t.Cleanup(srv.Close)
		shards[i] = srv
	}
	c := New(shards, service.Config{MaxBatchItems: 3})
	// Four items with distinct seeds: certain to exceed the limit and very
	// likely to span both shards (the bypass scenario).
	items := `{"scheduler": "ftsa", "epsilon": 1, "seed": 1},
	  {"scheduler": "ftsa", "epsilon": 1, "seed": 2},
	  {"scheduler": "ftsa", "epsilon": 1, "seed": 3},
	  {"scheduler": "ftsa", "epsilon": 1, "seed": 4}`
	rec := do(c, http.MethodPost, "/schedule/batch", batchBody(items))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most 3") {
		t.Fatalf("MaxBatchItems guard: status %d body %s", rec.Code, rec.Body.String())
	}
	st := coordStats(t, c)
	for i, s := range st.PerShard {
		if s.Requests != 0 {
			t.Fatalf("shard %d saw %d requests; the oversized batch must die at the door", i, s.Requests)
		}
	}
}

// TestDoorRefusalsMatchServer: a deployment built from one service.Config
// refuses a body with the status and bytes a standalone server built from the
// same Config answers, counts it as a door rejection, and never hands it to
// a shard — at one shard and at two.
func TestDoorRefusalsMatchServer(t *testing.T) {
	cfg := service.Config{MaxBodyBytes: 4096, MaxTasks: 3, MaxBatchItems: 2}
	// A 2-task instance passes MaxTasks, so its batch meets MaxBatchItems.
	const small = `"graph": {"name": "p", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 0.5], [0.5, 0]]}, "costs": {"cost": [[1, 2], [2, 1]]}`
	smallSchedule := `{` + small + `, "scheduler": "ftsa", "epsilon": 1}`
	item := `{"scheduler": "ftsa", "epsilon": 1}`
	cases := []struct {
		name, path string
		body       []byte
		status     int
		want       string // must appear in the body
	}{
		{"body limit", "/schedule", append(scheduleBody("ftsa", 1, 0), bytes.Repeat([]byte(" "), 4096)...),
			http.StatusRequestEntityTooLarge, "decoding request: http: request body too large"},
		{"max tasks", "/schedule", scheduleBody("ftsa", 1, 0), http.StatusBadRequest, "instance has 4 tasks, this server accepts at most 3"},
		{"max tasks evaluate", "/evaluate", evaluateBody(0, 10), http.StatusBadRequest, "this server accepts at most 3"},
		{"max tasks batch", "/schedule/batch", batchBody(item), http.StatusBadRequest, "this server accepts at most 3"},
		{"max tasks mission", "/missions", missionBody("ftsa", 1, ""), http.StatusBadRequest, "this server accepts at most 3"},
		{"max batch items", "/schedule/batch", []byte(`{` + small + `, "requests": [` + item + `,` + item + `,` + item + `]}`),
			http.StatusBadRequest, "batch carries 3 requests, this server accepts at most 2"},
		{"malformed", "/schedule", []byte(`{"graph": `), http.StatusBadRequest, "decoding request"},
		{"trailing data", "/schedule", []byte(smallSchedule + `]`), http.StatusBadRequest, "unexpected data after the JSON body"},
	}
	single := service.New(cfg)
	t.Cleanup(single.Close)
	for _, n := range []int{1, 2} {
		c, _ := newDeployment(t, n, cfg)
		for _, tc := range cases {
			sRec, cRec := do(single, http.MethodPost, tc.path, tc.body), do(c, http.MethodPost, tc.path, tc.body)
			if cRec.Code != tc.status || !strings.Contains(cRec.Body.String(), tc.want) {
				t.Errorf("%d shards, %s: %d %s; want %d naming %q", n, tc.name, cRec.Code, cRec.Body.String(), tc.status, tc.want)
			}
			if sRec.Code != cRec.Code || !bytes.Equal(sRec.Body.Bytes(), cRec.Body.Bytes()) ||
				sRec.Header().Get("Content-Type") != cRec.Header().Get("Content-Type") {
				t.Errorf("%d shards, %s: door answered %d %q, the standalone server %d %q",
					n, tc.name, cRec.Code, cRec.Body.String(), sRec.Code, sRec.Body.String())
			}
		}
		st := coordStats(t, c)
		if st.Door.Rejected != uint64(len(cases)) {
			t.Errorf("%d shards: door rejected %d, want %d", n, st.Door.Rejected, len(cases))
		}
		for i, s := range st.PerShard {
			if s.Requests != 0 {
				t.Errorf("%d shards: shard %d saw %d requests; every refusal must die at the door", n, i, s.Requests)
			}
		}
	}
}

// splitSeeds finds two /schedule parameter sets that route to different
// shards of an n-shard deployment, so batch tests provably span shards.
func splitSeeds(t *testing.T, n int) (int64, int64) {
	t.Helper()
	fpOf := func(seed int64) service.Fingerprint {
		req, err := service.DecodeScheduleRequest(bytes.NewReader(scheduleBody("ftsa", 1, seed)))
		if err != nil {
			t.Fatal(err)
		}
		return service.RequestFingerprint(req)
	}
	first := RouteFingerprint(fpOf(1), n)
	for seed := int64(2); seed < 64; seed++ {
		if RouteFingerprint(fpOf(seed), n) != first {
			return 1, seed
		}
	}
	t.Fatal("no seed in [2,64) routes away from seed 1; routing is suspiciously unbalanced")
	return 0, 0
}

// TestBatchSplitsAcrossShards sends a batch whose items provably live on
// different shards and checks the merged response: items in request order,
// each byte-identical to the standalone /schedule response, summary counters
// summed, and every owning shard's counters showing its sub-batch.
func TestBatchSplitsAcrossShards(t *testing.T) {
	const n = 2
	c, _ := newDeployment(t, n, service.Config{})
	seedA, seedB := splitSeeds(t, n)

	items := fmt.Sprintf(
		`{"scheduler": "ftsa", "epsilon": 1, "seed": %d},
		 {"scheduler": "ftsa", "epsilon": 1, "seed": %d},
		 {"scheduler": "ftsa", "epsilon": 1, "seed": %d}`, seedA, seedB, seedA)
	rec := do(c, http.MethodPost, "/schedule/batch", batchBody(items))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var out service.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || len(out.Items) != 3 {
		t.Fatalf("count=%d items=%d, want 3/3", out.Count, len(out.Items))
	}
	// Item 2 duplicates item 0: same bytes, served as the in-batch hit.
	if out.CacheMisses != 2 || out.CacheHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 2/1", out.CacheMisses, out.CacheHits)
	}
	if !bytes.Equal(out.Items[0].Response, out.Items[2].Response) {
		t.Fatal("duplicate items returned different bytes")
	}
	for i, seed := range []int64{seedA, seedB, seedA} {
		single := do(c, http.MethodPost, "/schedule", scheduleBody("ftsa", 1, seed))
		if single.Code != http.StatusOK || single.Header().Get(service.CacheStatusHeader) != "hit" {
			t.Fatalf("standalone item %d after batch: %d cache=%q", i, single.Code, single.Header().Get(service.CacheStatusHeader))
		}
		want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
		if !bytes.Equal(out.Items[i].Response, want) {
			t.Fatalf("item %d differs from standalone response", i)
		}
	}

	st := coordStats(t, c)
	var subBatches, batchItems uint64
	for _, s := range st.PerShard {
		subBatches += s.BatchRequests
		batchItems += s.BatchItems
	}
	if subBatches != 2 || batchItems != 3 {
		t.Fatalf("shards saw %d sub-batches with %d items, want 2 sub-batches / 3 items", subBatches, batchItems)
	}
	if st.Door.BatchRequests != 1 {
		t.Fatalf("door batch_requests = %d, want 1", st.Door.BatchRequests)
	}
}

// TestDoorFailuresAreJSON: when a shard answers 200 with a body the door
// cannot read, the merged batch and the merged /stats fail with a 502 whose
// body is the documented {"error": …} JSON, and the door counts nothing for
// them — the healthy shard's own ledger still conserves.
func TestDoorFailuresAreJSON(t *testing.T) {
	good := service.New(service.Config{Shard: "0"})
	t.Cleanup(good.Close)
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("not-json")) })
	c := New([]http.Handler{good, bad}, service.Config{})
	seedA, seedB := splitSeeds(t, 2)

	items := fmt.Sprintf(`{"scheduler": "ftsa", "epsilon": 1, "seed": %d},
		 {"scheduler": "ftsa", "epsilon": 1, "seed": %d}`, seedA, seedB)
	for _, rec := range []*httptest.ResponseRecorder{
		do(c, http.MethodPost, "/schedule/batch", batchBody(items)),
		do(c, http.MethodGet, "/stats", nil),
	} {
		var e service.ErrorResponse
		if rec.Code != http.StatusBadGateway || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("%d %q %q, want a 502 with a JSON error body", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
		}
	}
	if c.requests.Load() != 1 || c.rejected.Load() != 0 {
		t.Fatalf("door counted %d requests, %d rejected; want 1 and 0", c.requests.Load(), c.rejected.Load())
	}
	var st service.Stats
	if err := json.Unmarshal(do(good, http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Requests != st.CacheHits+st.CacheMisses+st.ClientErrors+st.InternalErrors+st.CancelledRequests {
		t.Fatalf("healthy shard's ledger: %+v, want its one item conserved", st)
	}
}

// TestStatsConservationMixedSoak drives a mixed request sequence — schedule
// with repeats, evaluate, tune, cross-shard batches, malformed bodies — and
// asserts the aggregation arithmetic: merged counters conserve, additive
// counters equal the per-shard sums plus the door's rejections, and
// queue_high_water merges as max, not sum.
func TestStatsConservationMixedSoak(t *testing.T) {
	const n = 4
	c, _ := newDeployment(t, n, service.Config{})
	seedA, seedB := splitSeeds(t, n)

	var sent, wantDoor400 uint64
	for round := 0; round < 3; round++ {
		for seed := int64(0); seed < 6; seed++ {
			do(c, http.MethodPost, "/schedule", scheduleBody("ftsa", 1, seed))
			sent++
		}
		do(c, http.MethodPost, "/evaluate", evaluateBody(int64(round), 30))
		sent++
		do(c, http.MethodPost, "/tune", tuneBody(24))
		sent++
		rec := do(c, http.MethodPost, "/schedule/batch", batchBody(fmt.Sprintf(
			`{"scheduler": "ftsa", "epsilon": 1, "seed": %d},
			 {"scheduler": "mcftsa", "epsilon": 1, "seed": %d}`, seedA, seedB)))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch round %d: %d %s", round, rec.Code, rec.Body.String())
		}
		sent += 2 // two batched logical requests
		do(c, http.MethodPost, "/schedule", []byte(`{"graph":`))
		sent++
		wantDoor400++
	}

	st := coordStats(t, c)
	m := st.Merged
	if m.Requests != sent {
		t.Fatalf("merged requests = %d, want %d", m.Requests, sent)
	}
	if served := m.CacheHits + m.CacheMisses + m.ClientErrors + m.InternalErrors; served != m.Requests {
		t.Fatalf("merged counters leak: hits %d + misses %d + 4xx %d + 5xx %d = %d, requests %d",
			m.CacheHits, m.CacheMisses, m.ClientErrors, m.InternalErrors, served, m.Requests)
	}
	if m.InternalErrors != 0 {
		t.Fatalf("internal errors under soak: %d", m.InternalErrors)
	}
	if st.Door.Rejected != wantDoor400 || m.ClientErrors != wantDoor400 {
		t.Fatalf("door rejected=%d merged client_errors=%d, want %d each", st.Door.Rejected, m.ClientErrors, wantDoor400)
	}

	// Additive counters must equal the per-shard sums (+ door rejections for
	// the two that fold door traffic in); high-water must be the max.
	var sum service.Stats
	maxHW := 0
	for _, s := range st.PerShard {
		sum.Requests += s.Requests
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.ClientErrors += s.ClientErrors
		sum.InternalErrors += s.InternalErrors
		sum.BatchItems += s.BatchItems
		if s.QueueHighWater > maxHW {
			maxHW = s.QueueHighWater
		}
		if served := s.CacheHits + s.CacheMisses + s.ClientErrors + s.InternalErrors; served != s.Requests {
			t.Fatalf("shard %q leaks: %d served of %d", s.Shard, served, s.Requests)
		}
	}
	if m.Requests != sum.Requests+st.Door.Rejected {
		t.Fatalf("merged requests %d != shard sum %d + door %d", m.Requests, sum.Requests, st.Door.Rejected)
	}
	if m.CacheHits != sum.CacheHits || m.CacheMisses != sum.CacheMisses {
		t.Fatalf("merged hits/misses %d/%d != shard sums %d/%d", m.CacheHits, m.CacheMisses, sum.CacheHits, sum.CacheMisses)
	}
	if m.ClientErrors != sum.ClientErrors+st.Door.Rejected {
		t.Fatalf("merged client_errors %d != shard sum %d + door %d", m.ClientErrors, sum.ClientErrors, st.Door.Rejected)
	}
	if m.BatchItems != sum.BatchItems {
		t.Fatalf("merged batch_items %d != shard sum %d", m.BatchItems, sum.BatchItems)
	}
	if m.QueueHighWater != maxHW {
		t.Fatalf("merged queue_high_water = %d, want the max %d (a sum of maxima measures nothing)", m.QueueHighWater, maxHW)
	}

	// Every shard took some traffic: the deterministic diamond workload is
	// small, but 4 shards × this mix must not leave a shard cold.
	for i, s := range st.PerShard {
		if s.Requests == 0 {
			t.Errorf("shard %d served nothing; routing may be degenerate", i)
		}
	}

	// Repeating the identical soak against a single server yields the same
	// serving outcome: the sharded deployment is behaviorally invisible.
	single := service.New(service.Config{})
	t.Cleanup(single.Close)
	for round := 0; round < 3; round++ {
		for seed := int64(0); seed < 6; seed++ {
			do(single, http.MethodPost, "/schedule", scheduleBody("ftsa", 1, seed))
		}
		do(single, http.MethodPost, "/evaluate", evaluateBody(int64(round), 30))
		do(single, http.MethodPost, "/tune", tuneBody(24))
		do(single, http.MethodPost, "/schedule/batch", batchBody(fmt.Sprintf(
			`{"scheduler": "ftsa", "epsilon": 1, "seed": %d},
			 {"scheduler": "mcftsa", "epsilon": 1, "seed": %d}`, seedA, seedB)))
		do(single, http.MethodPost, "/schedule", []byte(`{"graph":`))
	}
	rec := do(single, http.MethodGet, "/stats", nil)
	var ss service.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &ss); err != nil {
		t.Fatal(err)
	}
	if m.Requests != ss.Requests || m.CacheHits != ss.CacheHits || m.CacheMisses != ss.CacheMisses ||
		m.ClientErrors != ss.ClientErrors || m.CacheEntries != ss.CacheEntries {
		t.Fatalf("merged view diverges from a single server under identical traffic:\nmerged: req=%d hit=%d miss=%d 4xx=%d entries=%d\nsingle: req=%d hit=%d miss=%d 4xx=%d entries=%d",
			m.Requests, m.CacheHits, m.CacheMisses, m.ClientErrors, m.CacheEntries,
			ss.Requests, ss.CacheHits, ss.CacheMisses, ss.ClientErrors, ss.CacheEntries)
	}
}

// TestHealthzAggregation: healthy shards → ok; any failing shard flips the
// deployment to 503.
func TestHealthzAggregation(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	rec := do(c, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"shards":2`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	degraded := New([]http.Handler{srv, bad}, service.Config{})
	rec = do(degraded, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"failing_shard":1`) {
		t.Fatalf("degraded healthz: %d %s", rec.Code, rec.Body.String())
	}
}

// TestProxyPassthrough runs a shard behind a real HTTP hop and checks the
// coordinator cannot tell: responses, headers and stats flow through.
func TestProxyPassthrough(t *testing.T) {
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	c := New([]http.Handler{&Proxy{Base: ts.URL}}, service.Config{})
	body := scheduleBody("ftsa", 1, 0)
	first := do(c, http.MethodPost, "/schedule", body)
	second := do(c, http.MethodPost, "/schedule", body)
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("proxied schedule: %d then %d", first.Code, second.Code)
	}
	if first.Header().Get(service.CacheStatusHeader) != "miss" ||
		second.Header().Get(service.CacheStatusHeader) != "hit" {
		t.Fatalf("proxied cache statuses: %q then %q",
			first.Header().Get(service.CacheStatusHeader), second.Header().Get(service.CacheStatusHeader))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("proxied hit returned different bytes")
	}
	st := coordStats(t, c)
	if st.Merged.Requests != 2 || st.Merged.CacheHits != 1 || st.Merged.CacheMisses != 1 {
		t.Fatalf("proxied stats: %+v", st.Merged)
	}
}

// TestMixedDeployment runs one in-process shard beside one behind a Proxy:
// the local shard is handed the door's decoded request, the remote one is
// sent the bytes and decodes them itself, and a client cannot tell — every
// response is the bare server's, repeats are hits, both front-index layers
// engage, and the merged ledger conserves.
func TestMixedDeployment(t *testing.T) {
	single := service.New(service.Config{})
	t.Cleanup(single.Close)
	local := service.New(service.Config{Shard: "0"})
	t.Cleanup(local.Close)
	remote := service.New(service.Config{Shard: "1"})
	t.Cleanup(remote.Close)
	ts := httptest.NewServer(remote)
	t.Cleanup(ts.Close)
	c := New([]http.Handler{local, &Proxy{Base: ts.URL}}, service.Config{})

	var bodies [][]byte
	for seed := int64(1); seed <= 12; seed++ {
		bodies = append(bodies, scheduleBody("ftsa", 1, seed))
	}
	for _, body := range bodies {
		for round, wantCache := range []string{"miss", "hit", "hit", "hit"} {
			sRec, cRec := do(single, http.MethodPost, "/schedule", body), do(c, http.MethodPost, "/schedule", body)
			if cRec.Code != http.StatusOK || !bytes.Equal(sRec.Body.Bytes(), cRec.Body.Bytes()) {
				t.Fatalf("round %d: %d %s, single server: %s", round, cRec.Code, cRec.Body.String(), sRec.Body.String())
			}
			if got := cRec.Header().Get(service.CacheStatusHeader); got != wantCache {
				t.Fatalf("round %d: cache status %q, want %q", round, got, wantCache)
			}
		}
	}
	st := coordStats(t, c)
	for i, s := range st.PerShard {
		if s.Requests == 0 || s.Requests%4 != 0 {
			t.Fatalf("shard %d served %d requests; every body's four rounds belong to one shard and both shards must own some", i, s.Requests)
		}
		if s.BodyHits != s.Requests/2 {
			t.Fatalf("shard %d answered %d of %d requests from its front index, want half", i, s.BodyHits, s.Requests)
		}
	}
	want := uint64(2 * len(bodies))
	if st.Door.BodyHits != want || st.Merged.BodyHits != want {
		t.Fatalf("body_hits: door %d, merged %d, want %d", st.Door.BodyHits, st.Merged.BodyHits, want)
	}
	m := st.Merged
	if m.Requests != uint64(4*len(bodies)) || m.Requests != m.CacheHits+m.CacheMisses+m.ClientErrors+m.InternalErrors+m.CancelledRequests {
		t.Fatalf("merged ledger does not conserve: %+v", m)
	}
}

// TestProxySendsContentLength: a forwarded body goes upstream with its
// length declared, not re-chunked.
func TestProxySendsContentLength(t *testing.T) {
	body := scheduleBody("ftsa", 1, 0)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		want := []byte{} // a GET carries no body and must stay that way
		if r.Method == http.MethodPost {
			want = body
		}
		if r.ContentLength != int64(len(want)) || len(r.TransferEncoding) != 0 {
			t.Errorf("upstream %s: Content-Length %d, Transfer-Encoding %v; want %d and none",
				r.Method, r.ContentLength, r.TransferEncoding, len(want))
		}
		if got, _ := io.ReadAll(r.Body); !bytes.Equal(got, want) {
			t.Errorf("upstream %s body differs from the forwarded one", r.Method)
		}
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(worker.Close)
	c := New([]http.Handler{&Proxy{Base: worker.URL}}, service.Config{})
	if rec := do(c, http.MethodPost, "/schedule", body); rec.Code != http.StatusOK {
		t.Fatalf("proxied POST: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(c, http.MethodGet, "/missions/0123456789abcdef0123456789abcdef", nil); rec.Code != http.StatusOK {
		t.Fatalf("proxied GET: %d %s", rec.Code, rec.Body.String())
	}
}
