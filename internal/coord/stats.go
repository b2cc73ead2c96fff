package coord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"ftsched/internal/service"
)

// DoorStats are the coordinator's own counters: traffic seen at the door
// before any shard is involved.
type DoorStats struct {
	// Requests counts everything received, routed or not; Rejected the
	// requests terminated at the door with a 4xx (malformed, over-limit) —
	// those never reached a shard, so no shard counter knows them.
	Requests uint64 `json:"requests"`
	Rejected uint64 `json:"rejected"`
	// BatchRequests counts /schedule/batch envelopes at the door; the
	// merged view's batch_requests instead counts the per-shard sub-batch
	// envelopes the split produced.
	BatchRequests uint64 `json:"batch_requests"`
	// BodyHits counts the requests the door routed from its body-digest
	// front index, without decoding them. It is the door's own count; the
	// merged view's body_hits sums what the shards answered from theirs.
	BodyHits uint64 `json:"body_hits"`
}

// Stats is the body of the coordinator's GET /stats: the door's own
// counters, the merged cross-shard view, and each shard's raw stats.
type Stats struct {
	Shards   int             `json:"shards"`
	Door     DoorStats       `json:"door"`
	Merged   service.Stats   `json:"merged"`
	PerShard []service.Stats `json:"per_shard"`
}

// MergeShardStats folds per-shard counters into one deployment-wide view.
// Counters of disjoint events add: requests, hits, misses, errors, queue
// occupancy, entries, workers, and the per-scheduler table. QueueHighWater
// does NOT add — each shard's high-water mark is a maximum over time, and a
// sum of maxima taken at different moments is not the depth of anything; the
// deepest single-shard backlog is the honest merged figure. HitRate is
// recomputed from the summed hits and misses. Latency is left empty: the
// door's own record of what its clients saw replaces it in /stats.
func MergeShardStats(per []service.Stats) service.Stats {
	var m service.Stats
	m.SchedulerRequests = make(map[string]uint64)
	for _, s := range per {
		m.Requests += s.Requests
		m.EvaluateRequests += s.EvaluateRequests
		m.TuneRequests += s.TuneRequests
		m.MissionRequests += s.MissionRequests
		m.BatchRequests += s.BatchRequests
		m.BatchItems += s.BatchItems
		m.Missions += s.Missions
		m.CacheHits += s.CacheHits
		m.CacheMisses += s.CacheMisses
		m.SingleflightShared += s.SingleflightShared
		m.BodyHits += s.BodyHits
		m.CacheEntries += s.CacheEntries
		m.Rejected += s.Rejected
		m.ClientErrors += s.ClientErrors
		m.InternalErrors += s.InternalErrors
		m.CancelledRequests += s.CancelledRequests
		m.QueueDepth += s.QueueDepth
		m.QueueCapacity += s.QueueCapacity
		m.Workers += s.Workers
		for name, n := range s.SchedulerRequests {
			m.SchedulerRequests[name] += n
		}
		if s.QueueHighWater > m.QueueHighWater {
			m.QueueHighWater = s.QueueHighWater
		}
	}
	if m.CacheHits+m.CacheMisses > 0 {
		m.HitRate = float64(m.CacheHits) / float64(m.CacheHits+m.CacheMisses)
	}
	return m
}

// shardGet replays a GET against one shard and decodes the JSON body.
func (c *Coordinator) shardGet(shard int, path string, out any) error {
	rec := httptest.NewRecorder()
	c.shards[shard].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("shard %d: GET %s returned %d", shard, path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// handleStats aggregates GET /stats across every shard. The merged view
// folds the door's rejections back in — a request refused at the door never
// reached a shard, but it is still a request that ended in a client error —
// so merged.requests == merged.cache_hits + merged.cache_misses +
// merged.client_errors + merged.internal_errors + merged.cancelled_requests
// holds for the deployment exactly as it does for a standalone server. Its
// latency is the door's own record (timed).
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Shards: len(c.shards),
		Door: DoorStats{
			Requests:      c.requests.Load(),
			Rejected:      c.rejected.Load(),
			BatchRequests: c.batchRequests.Load(),
			BodyHits:      c.bodyHits.Load(),
		},
		PerShard: make([]service.Stats, len(c.shards)),
	}
	for i := range c.shards {
		if err := c.shardGet(i, "/stats", &st.PerShard[i]); err != nil {
			service.WriteError(w, http.StatusBadGateway, err)
			return
		}
	}
	st.Merged = MergeShardStats(st.PerShard)
	st.Merged.Requests += st.Door.Rejected
	st.Merged.ClientErrors += st.Door.Rejected
	st.Merged.Latency, st.Merged.LatencyByEndpoint = c.lat.Summaries()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// handleHealthz reports ok only when every shard does.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for i := range c.shards {
		var health struct {
			Status string `json:"status"`
		}
		if err := c.shardGet(i, "/healthz", &health); err != nil || health.Status != "ok" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"degraded","shards":%d,"failing_shard":%d}%s`, len(c.shards), i, "\n")
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","shards":%d}%s`, len(c.shards), "\n")
}
