package coord

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ftsched/internal/service"
)

// countingShard is a fake worker that records how often it was hit. The fuzz
// target cares about the door, not about scheduling, so the shard just
// acknowledges whatever reaches it — as a miss the first time it sees a body
// and as a hit from then on, which is all the door's front index looks at.
type countingShard struct {
	calls atomic.Uint64
	mu    sync.Mutex
	seen  map[string]bool
}

func (s *countingShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.calls.Add(1)
	body, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	status := "miss"
	if s.seen[r.URL.Path+string(body)] {
		status = "hit"
	} else if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	s.seen[r.URL.Path+string(body)] = true
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(service.CacheStatusHeader, status)
	w.Write([]byte("{}\n"))
}

// fuzzPaths maps the fuzzed selector byte onto the coordinator's POST surface.
var fuzzPaths = []string{"/schedule", "/evaluate", "/tune", "/schedule/batch"}

// FuzzRouteRequest fuzzes the coordinator door: arbitrary bytes against every
// POST endpoint of a 3-shard deployment. The invariants under fuzzing:
//
//  1. the coordinator never panics;
//  2. a body the service decoders reject is refused at the door with a 400
//     and reaches NO shard — malformed input must never occupy a worker;
//  3. a body that decodes is forwarded, and for the single-fingerprint
//     endpoints it reaches exactly the shard RouteFingerprint owns;
//  4. a repeat of such a body reaches the same shard every time, and from
//     the third sighting on the door routes it without decoding it.
func FuzzRouteRequest(f *testing.F) {
	for i := range fuzzPaths {
		f.Add(byte(i), []byte(nil))
		f.Add(byte(i), []byte(`{}`))
		f.Add(byte(i), []byte(`{"graph": nope`))
	}
	f.Add(byte(0), scheduleBody("ftsa", 1, 0))
	f.Add(byte(0), scheduleBody("heft", 0, 2))
	f.Add(byte(1), evaluateBody(0, 40))
	f.Add(byte(2), tuneBody(24))
	f.Add(byte(3), batchBody(`{"scheduler": "ftsa", "epsilon": 1}, {"scheduler": "mcftsa", "epsilon": 1, "seed": 3}`))
	f.Add(byte(3), batchBody(``))
	f.Add(byte(3), []byte(`{"requests": [null]}`))
	f.Add(byte(0), []byte(`{"graph": {"name": "x", "tasks": 1, "edges": []}, "platform": {"procs": 1, "delay": [[0]]}, "costs": {"cost": [[1]]}, "scheduler": "ftsa", "epsilon": 1}`))

	f.Fuzz(func(t *testing.T, pathIdx byte, body []byte) {
		path := fuzzPaths[int(pathIdx)%len(fuzzPaths)]
		shards := []*countingShard{{}, {}, {}}
		handlers := make([]http.Handler, len(shards))
		for i := range shards {
			handlers[i] = shards[i]
		}
		c := New(handlers, service.Config{})

		rec := do(c, http.MethodPost, path, body)

		var reached uint64
		for _, s := range shards {
			reached += s.calls.Load()
		}
		decodes := func() bool {
			var err error
			switch path {
			case "/schedule":
				_, err = service.DecodeScheduleRequest(bytes.NewReader(body))
			case "/evaluate":
				_, err = service.DecodeEvaluateRequest(bytes.NewReader(body))
			case "/tune":
				_, err = service.DecodeTuneRequest(bytes.NewReader(body))
			case "/schedule/batch":
				_, err = service.ParseBatchRequest(body)
			}
			return err == nil
		}()

		if !decodes {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: undecodable body got %d, want 400 (body %q)", path, rec.Code, body)
			}
			if reached != 0 {
				t.Fatalf("%s: undecodable body reached %d shard calls; the door must stop it", path, reached)
			}
			if again := do(c, http.MethodPost, path, body); again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("%s: a rejected body was answered differently on a repeat: %d %s", path, again.Code, again.Body.String())
			}
			return
		}
		if rec.Code == http.StatusBadRequest {
			t.Fatalf("%s: decodable body rejected 400: %s", path, rec.Body.String())
		}
		if path == "/schedule/batch" {
			return // fan-out may hit several shards; the door invariant is covered above
		}
		if reached != 1 {
			t.Fatalf("%s: decodable body made %d shard calls, want exactly 1", path, reached)
		}
		var fp service.Fingerprint
		for _, ep := range service.Endpoints() {
			if ep.Path() == path {
				d, err := ep.Decode(body)
				if err != nil {
					t.Fatal(err)
				}
				fp = d.Fingerprint()
				d.Release()
			}
		}
		want := RouteFingerprint(fp, len(shards))
		if shards[want].calls.Load() != 1 {
			t.Fatalf("%s: request did not land on the owning shard %d", path, want)
		}
		// The second sighting comes back a hit and is admitted; the third and
		// fourth are routed from the front index.
		for range 3 {
			if rec := do(c, http.MethodPost, path, body); rec.Code != http.StatusOK {
				t.Fatalf("%s: repeat got %d: %s", path, rec.Code, rec.Body.String())
			}
		}
		if got := shards[want].calls.Load(); got != 4 {
			t.Fatalf("%s: owning shard %d served %d of 4 sightings", path, want, got)
		}
		if st := coordStats(t, c); st.Door.BodyHits != 2 || st.Door.Requests != 4 || st.Door.Rejected != 0 {
			t.Fatalf("%s: door counted %d body hits of %d requests (%d rejected), want 2 of 4 (0)",
				path, st.Door.BodyHits, st.Door.Requests, st.Door.Rejected)
		}
	})
}

// FuzzRouteMission extends the door contract to the mission surface:
// arbitrary bytes against POST /missions and arbitrary ids against
// GET /missions/{id}. The same invariants hold — never panic, undecodable
// input is a 400 that reaches NO shard, decodable input reaches exactly the
// owning shard — plus the mission-specific one: a GET with a well-formed id
// routes to the same shard as the POST whose fingerprint spelled that id.
func FuzzRouteMission(f *testing.F) {
	f.Add([]byte(nil), "")
	f.Add([]byte(`{}`), "not-an-id")
	f.Add([]byte(`{"graph": nope`), "0123456789abcdef0123456789abcdef")
	f.Add(missionBody("mcftsa", 1, "reschedule"), "0123456789ABCDEF0123456789abcdef")
	f.Add(missionBody("heft", 0, "static"), "0123456789abcdef0123456789abcde")
	f.Add(missionBody("ftsa", 1, ""), "g123456789abcdef0123456789abcdef")

	f.Fuzz(func(t *testing.T, body []byte, id string) {
		shards := []*countingShard{{}, {}, {}}
		handlers := make([]http.Handler, len(shards))
		for i := range shards {
			handlers[i] = shards[i]
		}
		c := New(handlers, service.Config{})

		rec := do(c, http.MethodPost, "/missions", body)
		reached := func() (n uint64) {
			for _, s := range shards {
				n += s.calls.Load()
			}
			return n
		}
		var missions *service.Endpoint
		for _, ep := range service.Endpoints() {
			if ep.Path() == "/missions" {
				missions = ep
			}
		}
		d, decodeErr := missions.Decode(body)
		if decodeErr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("POST /missions: undecodable body got %d, want 400 (body %q)", rec.Code, body)
			}
			if reached() != 0 {
				t.Fatalf("POST /missions: undecodable body reached %d shard calls; the door must stop it", reached())
			}
		} else {
			if rec.Code == http.StatusBadRequest {
				t.Fatalf("POST /missions: decodable body rejected 400: %s", rec.Body.String())
			}
			fp := d.Fingerprint()
			d.Release()
			want := RouteFingerprint(fp, len(shards))
			if shards[want].calls.Load() != 1 || reached() != 1 {
				t.Fatalf("POST /missions: %d shard calls, owner %d got %d; want exactly the owner",
					reached(), want, shards[want].calls.Load())
			}
			// The id the POST minted must route its GET to the same shard.
			before := reached()
			rec = do(c, http.MethodGet, "/missions/"+service.MissionID(fp), nil)
			if rec.Code == http.StatusBadRequest {
				t.Fatalf("GET /missions/{id}: minted id rejected: %s", rec.Body.String())
			}
			if shards[want].calls.Load() != 2 || reached() != before+1 {
				t.Fatalf("GET /missions/{id} did not land on the owning shard %d", want)
			}
		}

		// Fuzzed id against the read endpoints: malformed ids must die at the
		// door without a shard call; well-formed ids route deterministically.
		// Only printable-ASCII single-segment ids are addressable through
		// httptest.NewRequest; anything else cannot reach the door anyway.
		if strings.ContainsAny(id, "/?#% ") {
			return
		}
		for i := 0; i < len(id); i++ {
			if id[i] <= 0x20 || id[i] >= 0x7f {
				return
			}
		}
		fp, idErr := service.ParseMissionID(id)
		owner := RouteFingerprint(fp, len(shards))
		before, ownerBefore := reached(), shards[owner].calls.Load()
		rec = do(c, http.MethodGet, "/missions/"+id, nil)
		if idErr != nil {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotFound && rec.Code != http.StatusMovedPermanently {
				t.Fatalf("GET /missions/%q: malformed id got %d, want 4xx", id, rec.Code)
			}
			if reached() != before {
				t.Fatalf("GET /missions/%q: malformed id reached a shard", id)
			}
			return
		}
		if reached() != before+1 || shards[owner].calls.Load() != ownerBefore+1 {
			t.Fatalf("GET /missions/%q did not land on exactly the owning shard %d", id, owner)
		}
	})
}
