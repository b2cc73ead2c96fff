package coord

import (
	"fmt"
	"net/http"
	"testing"

	"ftsched/internal/service"
)

// TestDoorCountsSplitBatchOnce: the merged latency is the door's own record,
// so a batch split into one sub-batch per shard is one request in it, not
// one per sub-batch.
func TestDoorCountsSplitBatchOnce(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	seedA, seedB := splitSeeds(t, 2)
	items := fmt.Sprintf(`{"scheduler": "ftsa", "epsilon": 1, "seed": %d},
		 {"scheduler": "ftsa", "epsilon": 1, "seed": %d}`, seedA, seedB)
	if rec := do(c, http.MethodPost, "/schedule/batch", batchBody(items)); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	st := coordStats(t, c)
	for i, s := range st.PerShard {
		if s.Latency.Count != 1 {
			t.Fatalf("shard %d recorded %d sub-batches, want 1", i, s.Latency.Count)
		}
	}
	if got := st.Merged.LatencyByEndpoint["/schedule/batch"]["miss"].Count; st.Merged.Latency.Count != 1 || got != 1 {
		t.Fatalf("merged latency count %d, /schedule/batch miss cell %d; want 1 and 1", st.Merged.Latency.Count, got)
	}
}

// TestDoorLatencyWrapsShards: on non-batch traffic the door times every
// request a shard times, from before the shard's clock starts to after it
// stops, so each of the door's cells counts what the shards' cells count
// together, and its max bounds theirs.
func TestDoorLatencyWrapsShards(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	type post struct {
		path string
		body []byte
	}
	posts := []post{{"/evaluate", evaluateBody(1, 20)}, {"/missions", missionBody("ftsa", 1, "")}}
	for seed := int64(1); seed <= 4; seed++ {
		posts = append(posts, post{"/schedule", scheduleBody("ftsa", 1, seed)})
	}
	// Three rounds: a miss, a decoded hit, and a hit from the front indexes.
	for round := 0; round < 3; round++ {
		for _, p := range posts {
			if rec := do(c, http.MethodPost, p.path, p.body); rec.Code/100 != 2 {
				t.Fatalf("%s round %d: %d %s", p.path, round, rec.Code, rec.Body.String())
			}
		}
	}
	st := coordStats(t, c)
	var shardCount uint64
	for i, s := range st.PerShard {
		shardCount += s.Latency.Count
		if st.Merged.Latency.MaxMs < s.Latency.MaxMs {
			t.Fatalf("merged max_ms %g < shard %d max_ms %g", st.Merged.Latency.MaxMs, i, s.Latency.MaxMs)
		}
	}
	if want := uint64(3 * len(posts)); st.Merged.Latency.Count != want || shardCount != want {
		t.Fatalf("merged latency count %d, shards %d; want %d each", st.Merged.Latency.Count, shardCount, want)
	}
	for path, byStatus := range st.Merged.LatencyByEndpoint {
		for status, door := range byStatus {
			var count uint64
			for i, s := range st.PerShard {
				cell := s.LatencyByEndpoint[path][status]
				count += cell.Count
				if door.MaxMs < cell.MaxMs {
					t.Fatalf("%s %s: door max_ms %g < shard %d max_ms %g", path, status, door.MaxMs, i, cell.MaxMs)
				}
			}
			if door.Count != count {
				t.Fatalf("%s %s: door counted %d, shards %d", path, status, door.Count, count)
			}
		}
	}
}
