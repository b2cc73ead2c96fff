package service

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// BatchRequest is the body of POST /schedule/batch: one instance scheduled
// under many parameter sets. The instance is decoded and validated once, and
// every cache-missing item is computed inside a single worker job, so the
// whole batch shares one admission slot.
type BatchRequest struct {
	Instance
	// Requests is the parameter set per item; each combines with the shared
	// instance into a full /schedule request. Must be non-empty.
	Requests []BatchItem `json:"requests"`

	// items is the expansion into full ScheduleRequests, populated by
	// Validate (all sharing the envelope's instance).
	items []*ScheduleRequest
}

// BatchItem is the per-item parameter set of a batch: exactly the
// /schedule fields that are not part of the instance.
type BatchItem struct {
	Scheduler       string  `json:"scheduler"`
	Epsilon         int     `json:"epsilon"`
	Policy          string  `json:"policy,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	Lambda          float64 `json:"lambda,omitempty"`
	IncludeGantt    bool    `json:"include_gantt,omitempty"`
	IncludeSchedule bool    `json:"include_schedule,omitempty"`
}

// BatchResponse is the body of a successful POST /schedule/batch. Items
// appear in request order; each item's response field is byte-identical
// (modulo JSON re-compaction of the trailing newline) to what a standalone
// /schedule for the same parameters returns.
type BatchResponse struct {
	Count       int               `json:"count"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
	Items       []BatchItemResult `json:"items"`
}

// BatchItemResult is one item's outcome: how it was served and the full
// /schedule response body.
type BatchItemResult struct {
	Cache    string          `json:"cache"` // "hit" or "miss"
	Response json.RawMessage `json:"response"`
}

// ParseBatchRequest reads and validates one batch body with the same
// strictness as DecodeScheduleRequest (unknown fields and trailing documents
// rejected), into pooled instance storage the envelope keeps. On success
// every item has passed full /schedule validation and Items returns the
// expansion.
func ParseBatchRequest(body []byte) (*BatchRequest, error) {
	return decodeRequest[BatchRequest](body)
}

// Validate cross-checks the envelope and expands each item into a full
// ScheduleRequest, running /schedule's own validation on every one. The
// first invalid item fails the whole batch — partial results would make the
// response shape (and the conservation counters) ambiguous.
func (req *BatchRequest) Validate() error {
	if len(req.Requests) == 0 {
		return fmt.Errorf("batch carries no requests")
	}
	req.items = make([]*ScheduleRequest, len(req.Requests))
	for i, it := range req.Requests {
		sr := &ScheduleRequest{
			Instance:        req.Instance,
			Scheduler:       it.Scheduler,
			Epsilon:         it.Epsilon,
			Policy:          it.Policy,
			Seed:            it.Seed,
			Lambda:          it.Lambda,
			IncludeGantt:    it.IncludeGantt,
			IncludeSchedule: it.IncludeSchedule,
		}
		if err := sr.Validate(); err != nil {
			return fmt.Errorf("requests[%d]: %w", i, err)
		}
		req.items[i] = sr
	}
	return nil
}

// Items returns the batch expanded into full /schedule requests, in request
// order. Populated by Validate (so always set after ParseBatchRequest).
func (req *BatchRequest) Items() []*ScheduleRequest { return req.items }

// batchDecoded is the /schedule/batch row's Decoded. Counter discipline: the
// envelope counts as ONE request on receipt, so a malformed or over-limit
// one ends in one client error; a well-formed envelope counts as len(items)
// logical requests, every one of which ends in exactly one of cache_hits,
// cache_misses, client_errors (429 rejections) or internal_errors — so the
// /stats conservation invariant holds exactly whether traffic is batched or
// not.
func batchDecoded(req *BatchRequest) *Decoded {
	items := req.Items()
	schedulers := make([]string, len(items))
	for i, it := range items {
		schedulers[i] = it.canonicalScheduler()
	}
	return &Decoded{
		tasks:      req.Graph.NumTasks(),
		schedulers: schedulers,
		guard:      func(cfg *Config) error { return cfg.CheckBatchItems(len(items)) },
		// The items share the envelope's storage; serveBatch waits for its job.
		serve: func(s *Server, w http.ResponseWriter) (string, bool) {
			defer req.release()
			return s.serveBatch(w, items)
		},
		describe: func() string {
			return fmt.Sprintf("items=%d tasks=%d procs=%d", len(items), req.Graph.NumTasks(), req.Platform.NumProcs())
		},
	}
}

// serveBatch serves a well-formed batch: one cache pass, one pool job for
// every distinct miss, one response.
func (s *Server) serveBatch(w http.ResponseWriter, items []*ScheduleRequest) (string, bool) {
	// The envelope, counted once on receipt, is now len(items) logical
	// requests.
	s.requests.Add(uint64(len(items)) - 1)
	s.batchItems.Add(uint64(len(items)))

	// Serve phase 1: resolve what the cache already holds. Misses are
	// collected per distinct fingerprint, keyed to the first item missing it,
	// so repeated items cost one computation.
	fps := make([]Fingerprint, len(items))
	bodies := make([][]byte, len(items))
	first := make(map[Fingerprint]int)
	for i, it := range items {
		fps[i] = RequestFingerprint(it)
		if v, hit := s.cacheGet(fps[i]); hit {
			bodies[i] = v
		} else if _, dup := first[fps[i]]; !dup {
			first[fps[i]] = i
		}
	}

	// Serve phase 2: compute every distinct missing fingerprint in ONE pool
	// job — the batch holds one admission slot — into the body of its first
	// missing item. The counters for the batch's requests are committed only
	// on a terminal outcome, never partially.
	if len(first) > 0 {
		done := make(chan error, 1)
		submitErr := s.pool.TrySubmit(func() {
			done <- func() error {
				for i, it := range items {
					if j, ok := first[fps[i]]; !ok || j != i {
						continue
					}
					body, err := s.protect(fps[i], func() ([]byte, error) { return s.schedule(it) })
					if err != nil {
						return fmt.Errorf("requests[%d]: scheduling failed: %w", i, err)
					}
					bodies[i] = body
				}
				return nil
			}()
		})
		if submitErr != nil {
			// A refusal refuses all len(items) requests.
			s.writeError(w, refusedStatus(submitErr), submitErr, len(items))
			return "", false
		}
		if err := <-done; err != nil {
			// One failed item fails the batch: all its requests end as
			// internal errors.
			s.writeError(w, http.StatusInternalServerError, err, len(items))
			return "", false
		}
	}

	// Assemble: the first service of a computed fingerprint is the miss;
	// repeats within the batch are hits that shared the computation (the
	// batch-local form of singleflight). Counters commit only after the
	// response marshals, so the terminal outcome is all-hits-and-misses or
	// all-internal-errors, never a mix.
	resp := &BatchResponse{Count: len(items), Items: make([]BatchItemResult, len(items))}
	var shared uint64
	for i := range items {
		status := "hit"
		if j, ok := first[fps[i]]; ok && j == i {
			status = "miss"
			resp.CacheMisses++
		} else {
			if ok && bodies[i] == nil {
				bodies[i] = bodies[j]
				shared++
			}
			resp.CacheHits++
		}
		resp.Items[i] = BatchItemResult{Cache: status, Response: json.RawMessage(bodies[i])}
	}
	body, err := Encode(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err, len(items))
		return "", false
	}
	for fp, i := range first {
		s.cachePut(fp, bodies[i])
	}
	s.hits.Add(uint64(resp.CacheHits))
	s.misses.Add(uint64(resp.CacheMisses))
	s.singleflightShared.Add(shared)
	status := "miss"
	if resp.CacheMisses == 0 {
		status = "hit"
	}
	s.writeCachedResponse(w, body, status)
	return status, true
}
