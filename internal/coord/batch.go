package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"ftsched/internal/par"
	"ftsched/internal/service"
)

// handleBatch serves POST /schedule/batch at the coordinator: decode and
// validate the envelope once at the door, route every item by its request
// fingerprint, fan the per-shard sub-batches out concurrently, and merge the
// per-item results back in request order. Because an item's fingerprint — not
// its batch position — decides its shard, repeated parameter sets land where
// their cache entry lives, and the merged response carries the same bytes per
// item as a single-server batch.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	c.batchRequests.Add(1)
	buf, ok := c.readBody(w, r)
	if !ok {
		return
	}
	defer service.ReleaseBody(buf)
	body := buf.Bytes()
	req, err := service.ParseBatchRequest(body)
	if err == nil {
		err = c.cfg.CheckTasks(req.Graph.NumTasks())
	}
	if err == nil {
		err = c.cfg.CheckBatchItems(len(req.Items()))
	}
	if err != nil {
		c.reject(w, http.StatusBadRequest, err)
		return
	}
	items := req.Items()
	groups := make(map[int][]int) // shard -> original item indices, in order
	for i, it := range items {
		shard := c.Route(service.RequestFingerprint(it))
		groups[shard] = append(groups[shard], i)
	}
	if c.cfg.Log != nil {
		c.cfg.Log.Printf("%s /schedule/batch items=%d shards=%d", r.RemoteAddr, len(items), len(groups))
	}

	// Whole batch owned by one shard: forward the original bytes, the
	// response streams straight through.
	if len(groups) == 1 {
		for shard := range groups {
			c.forward(w, r, shard, body)
		}
		return
	}

	// Fan out one sub-batch per owning shard, concurrently. Sub-envelopes
	// re-marshal the decoded instance; JSON float64 round-tripping is exact,
	// so a shard decodes (and fingerprints) the same instance either way.
	// A sub-batch's failure is its reply's status, so the loop never fails.
	type shardReply struct {
		shard  int
		idxs   []int
		status int
		header http.Header
		body   []byte
	}
	replies := make([]*shardReply, 0, len(groups))
	for shard, idxs := range groups {
		replies = append(replies, &shardReply{shard: shard, idxs: idxs})
	}
	// Deterministic order: failure relay and merge walk shards ascending.
	sort.Slice(replies, func(a, b int) bool { return replies[a].shard < replies[b].shard })
	par.For(len(replies), len(replies), func(_, k int) error {
		reply := replies[k]
		sub := service.BatchRequest{Instance: req.Instance, Requests: make([]service.BatchItem, 0, len(reply.idxs))}
		for _, i := range reply.idxs {
			sub.Requests = append(sub.Requests, req.Requests[i])
		}
		subBody, err := json.Marshal(&sub)
		if err != nil { // unreachable: sub re-marshals decoded values
			reply.status = http.StatusInternalServerError
			reply.body, _ = json.Marshal(service.ErrorResponse{Error: err.Error()})
			return nil
		}
		rec := httptest.NewRecorder()
		subReq := httptest.NewRequest(http.MethodPost, "/schedule/batch", bytes.NewReader(subBody))
		subReq.Header.Set("Content-Type", "application/json")
		c.shards[reply.shard].ServeHTTP(rec, subReq)
		reply.status = rec.Code
		reply.header = rec.Header()
		reply.body = rec.Body.Bytes()
		return nil
	})

	// All-or-nothing: any failed sub-batch fails the whole batch with the
	// lowest failing shard's own response (a 429's Retry-After included).
	// The successful shards keep their cache entries, so a retry re-serves
	// those items as hits.
	for _, reply := range replies {
		if reply.status != http.StatusOK {
			if ra := reply.header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(reply.status)
			w.Write(reply.body)
			return
		}
	}

	// Merge per-item results back into request order.
	out := service.BatchResponse{Count: len(items), Items: make([]service.BatchItemResult, len(items))}
	for _, reply := range replies {
		var sr service.BatchResponse
		if err := json.Unmarshal(reply.body, &sr); err != nil || len(sr.Items) != len(reply.idxs) {
			// Unreachable with well-behaved shards.
			service.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %d returned an unreadable batch response", reply.shard))
			return
		}
		out.CacheHits += sr.CacheHits
		out.CacheMisses += sr.CacheMisses
		for k, i := range reply.idxs {
			out.Items[i] = sr.Items[k]
		}
	}
	merged, err := service.Encode(&out)
	if err != nil { // unreachable: items are valid JSON from the shards
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	status := "miss"
	if out.CacheMisses == 0 {
		status = "hit"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(service.CacheStatusHeader, status)
	w.Write(merged)
}
