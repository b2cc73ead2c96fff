package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// largeBodies returns n distinct JSON bodies of 1.5–9 KB that compress
// like responses do.
func largeBodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"id":%d,"rows":[`, i)
		for j := 0; j < 60+i*7%300; j++ {
			fmt.Fprintf(&b, `{"task":%d,"finish":%g},`, j, float64(i*j+1)/7)
		}
		b.WriteString(`{}]}`)
		out[i] = b.Bytes()
	}
	return out
}

func TestDeflateEntryRoundTrip(t *testing.T) {
	bodies := append(largeBodies(32), []byte(`{"small":true}`), bytes.Repeat([]byte(" "), deflateMin-1))
	// Deflate every body before inflating any: entries must not share the
	// pooled writer's buffer.
	entries := make([][]byte, len(bodies))
	for i, b := range bodies {
		entries[i] = deflateEntry(b)
	}
	var prev []byte
	for i, b := range bodies {
		e := entries[i]
		if compressed := len(b) >= deflateMin; compressed != (e[0] == deflatedMark) {
			t.Fatalf("body %d (%d B): compressed = %v", i, len(b), !compressed)
		}
		if len(b) >= deflateMin && len(e) >= len(b) {
			t.Errorf("body %d: entry %d B is not smaller than the body's %d B", i, len(e), len(b))
		}
		got, ok := inflateEntry(e)
		if !ok || !bytes.Equal(got, b) {
			t.Fatalf("body %d: inflated to %d B (ok %v), want the %d B body", i, len(got), ok, len(b))
		}
		// The previous inflation is the previous request's body: a later
		// inflation must not write into it.
		if i > 0 && !bytes.Equal(prev, bodies[i-1]) {
			t.Fatalf("inflating body %d changed body %d's bytes", i, i-1)
		}
		prev = got
	}
	if _, ok := inflateEntry([]byte{deflatedMark, 0x80}); ok {
		t.Error("an entry with a truncated length inflated")
	}
}

// TestCompressedEntriesNeverCrossRequests puts and gets distinct large
// bodies concurrently through the pooled writers and readers on a small,
// recycling cache: no Get may observe another key's bytes, and no later Get
// may change a body already handed out. Run it under -race.
func TestCompressedEntriesNeverCrossRequests(t *testing.T) {
	s := &Server{cache: NewCache(16, 4)}
	bodies := largeBodies(47) // prime, so every goroutine gets keys the others put
	var found atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev []byte
			prevKey := -1
			for i := 0; i < 400; i++ {
				k := (i*5 + w*7) % len(bodies)
				if (i+w)%2 == 0 {
					s.cachePut(fpFromInt(k), bodies[k])
					continue
				}
				v, present := s.cache.Get(fpFromInt(k))
				if !present {
					continue
				}
				found.Add(1)
				got, ok := inflateEntry(v)
				if !ok || !bytes.Equal(got, bodies[k]) {
					t.Errorf("Get(%d) returned %d B (ok %v) that are not its body", k, len(got), ok)
					return
				}
				if prevKey >= 0 && !bytes.Equal(prev, bodies[prevKey]) {
					t.Errorf("a later Get changed the body of key %d", prevKey)
					return
				}
				prev, prevKey = got, k
			}
		}(w)
	}
	wg.Wait()
	if found.Load() == 0 {
		t.Fatal("no Get found an entry: the test checked nothing")
	}
}

// TestCompressedHitsServeMissBytes: every hit path over a compressed entry —
// /tune, a large /evaluate, a batch item and a front-index hit — returns the
// miss's bytes. All misses are served before any hit, so an entry sharing a
// pooled buffer with a later one would show.
func TestCompressedHitsServeMissBytes(t *testing.T) {
	// A collection empties the pools; without one, every deflate after a
	// processor's first reuses that processor's pooled writer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, ts := startServer(t, Config{})
	inst, err := workload.NewInstance(rand.New(rand.NewSource(42)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Graph: inst.Graph, Platform: inst.Platform, Costs: inst.Costs}
	type post struct {
		path string
		body []byte
	}
	var posts []post
	for seed := int64(7); seed < 12; seed++ {
		posts = append(posts, post{"/tune", marshalJSON(t, &TuneRequest{
			Instance: in, Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1},
			Trials: 20, Target: 0.9, EvalSeed: seed,
		})}, post{"/evaluate", marshalJSON(t, &EvaluateRequest{
			ScheduleRequest: ScheduleRequest{Instance: in, Scheduler: "ftsa", Epsilon: 2},
			Trials:          50, Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1}, EvalSeed: seed,
			Policies: []string{"static", "reschedule"}, // past deflateMin
		})})
	}
	cachedPosts := len(posts)
	posts = append(posts, post{"/schedule/batch", marshalJSON(t, &BatchRequest{Instance: in, Requests: []BatchItem{
		{Scheduler: "ftsa", Epsilon: 1, IncludeSchedule: true},
		{Scheduler: "heft", Epsilon: 0}, // stays raw
	}})})

	send := func(p post, want string) []byte {
		t.Helper()
		resp, data := postJSON(t, ts.URL+p.path, p.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", p.path, resp.StatusCode, data)
		}
		if got := resp.Header.Get(CacheStatusHeader); got != want {
			t.Fatalf("%s: %s = %q, want %q", p.path, CacheStatusHeader, got, want)
		}
		return data
	}
	misses := make([][]byte, len(posts))
	for i, p := range posts {
		misses[i] = send(p, "miss")
	}
	var batchMiss BatchResponse
	if err := json.Unmarshal(misses[cachedPosts], &batchMiss); err != nil {
		t.Fatal(err)
	}

	// Every large body is stored compressed, the small batch item raw.
	compressed := 0
	for i := range srv.cache.shards {
		sh := &srv.cache.shards[i]
		for _, e := range sh.ents[min(1, len(sh.ents)):] {
			if e.val[0] == deflatedMark {
				compressed++
			}
		}
	}
	if n := srv.cache.Len(); compressed != cachedPosts+1 || n != cachedPosts+2 {
		t.Fatalf("%d of %d cache entries compressed, want %d of %d", compressed, n, cachedPosts+1, cachedPosts+2)
	}

	// Twice more each: a decoded hit, then (for the fingerprint-cached
	// endpoints) a front-index hit.
	for round := 0; round < 2; round++ {
		for i, p := range posts[:cachedPosts] {
			if got := send(p, "hit"); !bytes.Equal(got, misses[i]) {
				t.Fatalf("round %d, post %d (%s): hit body differs from the miss's", round, i, p.path)
			}
		}
		var batchHit BatchResponse
		if err := json.Unmarshal(send(posts[cachedPosts], "hit"), &batchHit); err != nil {
			t.Fatal(err)
		}
		for k, it := range batchHit.Items {
			if it.Cache != "hit" || !bytes.Equal(it.Response, batchMiss.Items[k].Response) {
				t.Fatalf("round %d batch item %d: %s, bytes equal %v", round, k, it.Cache,
					bytes.Equal(it.Response, batchMiss.Items[k].Response))
			}
		}
	}
	if got := srv.bodyHits.Load(); got != uint64(cachedPosts) {
		t.Fatalf("front-index hits = %d, want %d (each cached POST's third sighting)", got, cachedPosts)
	}
}
