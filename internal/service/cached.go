package service

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Endpoint is one POST endpoint. The five differ only in how a body decodes
// and what it computes; everything around that — body buffering, the
// body-digest front index, guards, counters, the verbose log — is one path,
// which the server mounts once per Endpoint and the coordinator's door joins
// through ServeDecoded.
type Endpoint struct {
	path string
	// domain is the fingerprint domain and description the docs/API.md text
	// of the endpoint's row in EndpointTable.
	domain, description string
	// opName names the computation in a 500 body ("scheduling failed: …").
	opName string
	// cached marks the fingerprint-cached endpoints (/schedule, /evaluate,
	// /tune), the only ones a server's front index answers and admits.
	cached bool
	// counter picks the endpoint's share of Stats.Requests; nil for
	// /schedule, which has no counter of its own.
	counter func(*Server) *atomic.Uint64
	decode  func(body []byte) (*Decoded, error) // decodes(the row's Decoded)
}

var endpoints = []*Endpoint{
	{path: "/schedule", domain: "schedule", opName: "scheduling", cached: true, decode: decodes(scheduleDecoded),
		description: "schedule an instance; returns latency bounds, metrics, optional reliability bound / Gantt / full schedule"},
	{path: "/schedule/batch", domain: "schedule", decode: decodes(batchDecoded),
		counter:     func(s *Server) *atomic.Uint64 { return &s.batchRequests },
		description: "schedule one instance under many parameter sets; decoded once, distinct misses computed in one worker job, items cached individually"},
	{path: "/evaluate", domain: "evaluate", opName: "evaluation", cached: true, decode: decodes(evaluateDecoded),
		counter:     func(s *Server) *atomic.Uint64 { return &s.evaluateRequests },
		description: "schedule + Monte-Carlo failure injection; returns success rate (Wilson interval), latency p50/p99, degradation histogram"},
	{path: "/tune", domain: "tune", opName: "tuning", cached: true, decode: decodes(tuneDecoded),
		counter:     func(s *Server) *atomic.Uint64 { return &s.tuneRequests },
		description: "search the registry × ε × policy grid; returns the (latency, success) Pareto frontier and a recommended point for a reliability target"},
	{path: "/missions", domain: "mission", decode: decodes(missionDecoded),
		counter:     func(s *Server) *atomic.Uint64 { return &s.missionRequests },
		description: "create an online mission (async, 202 + id): execute the schedule against one failure scenario, re-planning the surviving suffix per policy"},
}

// Endpoints lists the POST endpoints in documentation order.
func Endpoints() []*Endpoint { return endpoints }

// Path is the endpoint's route, e.g. "/schedule".
func (e *Endpoint) Path() string { return e.path }

// Digest takes the body digest the endpoint's front index is keyed by.
func (e *Endpoint) Digest(body []byte) BodyDigest { return digestBody(e.path, body) }

// Decode reads, validates and fingerprints one request body, into pooled
// instance storage. The error is safe to echo to the client. A successful
// result owns that storage: pass it to a Server's ServeDecoded, or call
// Release.
func (e *Endpoint) Decode(body []byte) (*Decoded, error) {
	d, err := e.decode(body)
	if err != nil {
		return nil, err
	}
	d.ep = e
	return d, nil
}

// Decoded is a decoded, validated and fingerprinted request of one
// endpoint: everything a server needs to guard, count and serve it without
// seeing the body again.
type Decoded struct {
	ep    *Endpoint
	fp    Fingerprint
	tasks int
	// schedulers are the canonical registry names the request counts toward
	// in Stats.SchedulerRequests; repeats are harmless.
	schedulers []string
	// guard applies the serving server's per-endpoint limits; nil when the
	// endpoint has none beyond MaxTasks.
	guard   func(*Config) error
	compute func(*Server) ([]byte, error)
	// serve, when set, answers the request in place of the cache →
	// singleflight → pool flow around compute: the rows that are not
	// fingerprint-cached. It reports the cache status, or false when it
	// wrote an error.
	serve func(*Server, http.ResponseWriter) (cacheStatus string, ok bool)
	// release returns the request's pooled instance storage (decodes).
	release func()
	// describe renders the verbose log's request summary. It reads the
	// request, so it must run before release.
	describe func() string
}

// Fingerprint is the request's canonical cache key and routing input.
func (d *Decoded) Fingerprint() Fingerprint { return d.fp }

// Tasks is the instance's task count, for a MaxTasks guard.
func (d *Decoded) Tasks() int { return d.tasks }

// Release returns the request's pooled storage. Call it only for a Decoded
// that is not handed to ServeDecoded, which takes the ownership over.
func (d *Decoded) Release() { d.release() }

func scheduleDecoded(req *ScheduleRequest) *Decoded {
	return &Decoded{
		fp:         RequestFingerprint(req),
		tasks:      req.Graph.NumTasks(),
		schedulers: []string{req.canonicalScheduler()},
		compute:    func(s *Server) ([]byte, error) { return s.schedule(req) },
		describe:   req.describe,
	}
}

func evaluateDecoded(req *EvaluateRequest) *Decoded {
	return &Decoded{
		fp:         EvaluateFingerprint(req),
		tasks:      req.Graph.NumTasks(),
		schedulers: []string{req.canonicalScheduler()},
		guard: func(cfg *Config) error {
			if req.Trials > cfg.MaxTrials {
				return fmt.Errorf("request asks for %d trials, this server accepts at most %d", req.Trials, cfg.MaxTrials)
			}
			return nil
		},
		compute:  func(s *Server) ([]byte, error) { return s.evaluate(req) },
		describe: req.describe,
	}
}

func tuneDecoded(req *TuneRequest) *Decoded {
	// A tune request sweeps the registry: attribute it to every scheduler in
	// its grid, so the /stats table shows which schedulers the search
	// traffic exercises.
	cands := req.candidates()
	schedulers := make([]string, len(cands))
	for i, c := range cands {
		schedulers[i] = c.Scheduler
	}
	return &Decoded{
		fp:         TuneFingerprint(req),
		tasks:      req.Graph.NumTasks(),
		schedulers: schedulers,
		guard: func(cfg *Config) error {
			if req.Trials > cfg.MaxTrials {
				return fmt.Errorf("request asks for %d trials per candidate, this server accepts at most %d",
					req.Trials, cfg.MaxTrials)
			}
			if len(cands) > cfg.MaxCandidates {
				return fmt.Errorf("request derives %d candidates, this server accepts at most %d",
					len(cands), cfg.MaxCandidates)
			}
			return nil
		},
		compute: func(s *Server) ([]byte, error) { return s.tuneFn(req) },
		describe: func() string {
			return fmt.Sprintf("candidates=%d trials=%d tasks=%d procs=%d",
				len(cands), req.Trials, req.Graph.NumTasks(), req.Platform.NumProcs())
		},
	}
}

// bodyAlias is what the front index retains per admitted body: the
// canonical cache key the body decoded to, and the per-scheduler counters a
// decoded request would bump — enough to replay a hit without the request.
type bodyAlias struct {
	fp     Fingerprint
	scheds schedSet
}

// handleCached mounts one endpoint: buffer the body, try the front index,
// otherwise decode and join serveDecoded.
func (s *Server) handleCached(ep *Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.countRequest(ep)
		start := time.Now()
		buf, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
		if err != nil {
			s.writeError(w, status, err, 1)
			return
		}
		defer ReleaseBody(buf)
		digest := ep.Digest(buf.Bytes())
		if ep.cached && s.serveFront(w, r, ep, digest, start) {
			return
		}
		d, err := ep.Decode(buf.Bytes())
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err, 1)
			return
		}
		s.serveDecoded(w, r, d, digest, start)
	}
}

// serveFront answers a byte-identical repeat from the front index: if the
// body's digest aliases a canonical fingerprint whose entry is still cached,
// replay exactly what the decoded hit path does — counters, LRU promotion,
// bytes, header, latency sample — without decoding or fingerprinting. It
// reports false, having written nothing, when the request must take the
// decode path.
func (s *Server) serveFront(w http.ResponseWriter, r *http.Request, ep *Endpoint, digest BodyDigest, start time.Time) bool {
	alias, ok := s.front.Get(digest)
	if !ok {
		return false
	}
	v, hit := s.cacheGet(alias.fp)
	if !hit {
		// The entry was evicted; the alias is dead weight until the body is
		// decoded, recomputed and seen again.
		s.front.Delete(digest)
		return false
	}
	s.countSchedulers(alias.scheds)
	s.hits.Add(1)
	s.bodyHits.Add(1)
	s.writeCachedResponse(w, v, "hit")
	s.lat.Record(ep.path, "hit", time.Since(start))
	if s.cfg.Log != nil {
		s.logRequest(r, ep.path, fmt.Sprintf("fp=%x", alias.fp[:4]), "hit", start)
	}
	return true
}

// ServeDecoded serves a request another layer of this process has already
// decoded — the coordinator's door, which decodes to route and would
// otherwise make the shard decode the same bytes again. It counts and
// serves the request exactly as if the server had decoded it itself, and
// takes ownership of d's pooled storage. digest is the body's digest under
// d's endpoint, so that a repeat reaching the server as raw bytes finds the
// alias this call admits.
//
// Only pass a Decoded this process produced: a fingerprint is trusted as the
// cache key, which is why a remote shard behind a Proxy is sent the bytes
// and decodes them itself.
func (s *Server) ServeDecoded(w http.ResponseWriter, r *http.Request, d *Decoded, digest BodyDigest) {
	s.countRequest(d.ep)
	s.serveDecoded(w, r, d, digest, time.Now())
}

// serveDecoded is the part of a request after the decode: guards,
// per-scheduler counters, then the row's serve or the cache → singleflight →
// pool flow. A body is admitted to the front index only here and only once
// it has been served as a hit, so every alias has passed every guard and
// never-repeating traffic stores nothing.
func (s *Server) serveDecoded(w http.ResponseWriter, r *http.Request, d *Decoded, digest BodyDigest, start time.Time) {
	err := s.cfg.CheckTasks(d.tasks)
	if err == nil && d.guard != nil {
		err = d.guard(&s.cfg)
	}
	if err != nil {
		d.Release()
		s.writeError(w, http.StatusBadRequest, err, 1)
		return
	}
	var scheds schedSet
	for _, name := range d.schedulers {
		scheds |= s.schedBit(name)
	}
	s.countSchedulers(scheds)
	desc := ""
	if s.cfg.Log != nil {
		desc = d.describe() // before serveCached: the cleanup hook may release the request
	}

	var cacheStatus string
	var ok bool
	if d.serve != nil {
		cacheStatus, ok = d.serve(s, w)
	} else {
		cacheStatus, ok = s.serveCached(w, r, d.fp, d.ep.opName,
			func() ([]byte, error) { return d.compute(s) }, d.release)
	}
	if !ok {
		return
	}
	if cacheStatus == "hit" && d.ep.cached {
		s.front.Put(digest, bodyAlias{fp: d.fp, scheds: scheds})
	}
	s.lat.Record(d.ep.path, cacheStatus, time.Since(start))
	s.logRequest(r, d.ep.path, desc, cacheStatus, start)
}

func (s *Server) countRequest(ep *Endpoint) {
	s.requests.Add(1)
	if ep.counter != nil {
		ep.counter(s).Add(1)
	}
}
