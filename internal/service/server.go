package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/bits"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/lazyrand"
	"ftsched/internal/mission"
	"ftsched/internal/platform"
	"ftsched/internal/reliability"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers" // register every built-in scheduler
	"ftsched/internal/sim"
	"ftsched/internal/stats"
)

// CacheStatusHeader is set on every successful POST response: "hit" when the
// response came from the cache (for /missions: the mission already
// existed), "miss" when it was freshly computed. The body is byte-identical
// either way; only this header distinguishes them.
const CacheStatusHeader = "X-Ftserved-Cache"

// Config tunes a Server. The zero value picks serving defaults sized to the
// host.
type Config struct {
	// Workers is the scheduling worker count (0: one per core).
	Workers int
	// Queue bounds the pending-request queue (0: 2× workers). A full queue
	// rejects with 429.
	Queue int
	// CacheEntries bounds the response cache (0: 4096 entries).
	CacheEntries int
	// CacheShards is the response-cache shard count (0: 16).
	CacheShards int
	// MaxBodyBytes limits a request body (0: 32 MiB). Larger bodies get 413.
	MaxBodyBytes int64
	// MaxTasks rejects instances with more tasks (0: unlimited); a cheap
	// guard against a single request monopolizing a worker.
	MaxTasks int
	// MaxTrials bounds the trial count of one /evaluate request and the
	// per-candidate trial count of one /tune request (0: 100000), so a
	// single batch cannot monopolize a worker.
	MaxTrials int
	// MaxCandidates bounds the derived candidate grid of one /tune request
	// (0: 256) — a registry × ε-ladder sweep multiplies the trial cost, so
	// it gets its own guard on top of MaxTrials.
	MaxCandidates int
	// MaxBatchItems bounds the item count of one /schedule/batch envelope
	// (0: 256), so a single batch cannot monopolize a worker.
	MaxBatchItems int
	// MaxMissions bounds the retained mission states (0: 1024). At the
	// bound, creating a mission evicts the oldest finished one; if every
	// retained mission is still running, the create is rejected with 429.
	MaxMissions int
	// Shard, when non-empty, labels this server's GET /stats body. The
	// coordinator sets it to the shard index so per-shard sections of an
	// aggregated /stats response are self-identifying.
	Shard string
	// Log, when non-nil, receives one line per served POST request.
	Log *log.Logger
}

// WithDefaults returns cfg with every zero limit replaced by its default.
// Workers and Queue are defaulted by the worker pool, which sizes them to
// the host.
func (cfg Config) WithDefaults() Config {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 16
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 100000
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 256
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.MaxMissions <= 0 {
		cfg.MaxMissions = 1024
	}
	return cfg
}

// CheckTasks is the MaxTasks guard: it refuses an instance of n tasks when
// the server accepts fewer.
func (cfg *Config) CheckTasks(n int) error {
	if cfg.MaxTasks > 0 && n > cfg.MaxTasks {
		return fmt.Errorf("instance has %d tasks, this server accepts at most %d", n, cfg.MaxTasks)
	}
	return nil
}

// CheckBatchItems is the MaxBatchItems guard on a /schedule/batch envelope
// of n items.
func (cfg *Config) CheckBatchItems(n int) error {
	if n > cfg.MaxBatchItems {
		return fmt.Errorf("batch carries %d requests, this server accepts at most %d", n, cfg.MaxBatchItems)
	}
	return nil
}

// Server handles the ftserved HTTP API. Create one with New, mount it as an
// http.Handler, and Close it on shutdown to drain the worker pool.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	pool  *Pool
	cache *Cache[Fingerprint, []byte] // serialized responses, the large ones deflated
	// front aliases the digests of bodies already served as hits to their
	// entries in cache, so a byte-identical repeat is answered without a
	// decode. Bounded by cfg.CacheEntries: an alias is only useful while its
	// entry is cached.
	front *Cache[BodyDigest, bodyAlias]

	// schedule, evaluate and tuneFn compute the response bytes for a
	// validated request of the respective endpoint. They are fields so tests
	// can replace them with controllable stubs (e.g. ones that block, to
	// fill the queue deterministically).
	schedule func(*ScheduleRequest) ([]byte, error)
	evaluate func(*EvaluateRequest) ([]byte, error)
	tuneFn   func(*TuneRequest) ([]byte, error)

	requests           atomic.Uint64
	evaluateRequests   atomic.Uint64
	tuneRequests       atomic.Uint64
	batchRequests      atomic.Uint64
	batchItems         atomic.Uint64
	missionRequests    atomic.Uint64
	hits               atomic.Uint64
	misses             atomic.Uint64
	singleflightShared atomic.Uint64
	bodyHits           atomic.Uint64
	rejected           atomic.Uint64
	clientErrors       atomic.Uint64
	internalErrors     atomic.Uint64
	cancelled          atomic.Uint64

	// missionMu guards missions (by id) and missionOrder (ids in admission
	// order, the eviction scan order). Mission GETs are uncounted reads;
	// POST /missions holds the mutex across existence check, pool
	// submission and insertion so a failed submit never leaves a phantom
	// mission.
	missionMu    sync.Mutex
	missions     map[string]*missionState
	missionOrder []string

	// flightMu guards flights, the in-flight cache-miss computations keyed
	// by fingerprint. Concurrent requests for one fingerprint collapse onto
	// a single computation (singleflight) instead of each submitting a
	// duplicate job to the pool.
	flightMu sync.Mutex
	flights  map[Fingerprint]*flight

	// schedReqs are the per-scheduler request counts reported by GET /stats
	// (every well-formed request counts, hits and misses alike), one counter
	// per canonical registry name: schedNames[i] ↔ schedReqs[i], schedIndex
	// the inverse. The registry is closed once init has run, so the table is
	// built once in New and read without a lock.
	schedNames []string
	schedIndex map[string]int
	schedReqs  []atomic.Uint64

	lat Latency
}

// New creates a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	names := sched.Names()
	if len(names) > 64 {
		// Like a name collision in sched.Register, this is a property of the
		// binary, not of any input: widen schedSet before registering more.
		panic(fmt.Sprintf("service.New: %d registered schedulers, schedSet holds 64", len(names)))
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		pool:       NewPool(cfg.Workers, cfg.Queue),
		cache:      NewCache(cfg.CacheEntries, cfg.CacheShards),
		front:      NewFrontIndex[bodyAlias](cfg.CacheEntries, cfg.CacheShards),
		flights:    make(map[Fingerprint]*flight),
		missions:   make(map[string]*missionState),
		schedNames: names,
		schedIndex: make(map[string]int, len(names)),
		schedReqs:  make([]atomic.Uint64, len(names)),
	}
	for i, name := range names {
		s.schedIndex[name] = i
	}
	s.schedule = s.runSchedule
	s.evaluate = s.runEvaluate
	s.tuneFn = s.runTune
	for _, ep := range endpoints {
		s.mux.HandleFunc("POST "+ep.path, s.handleCached(ep))
	}
	s.mux.HandleFunc("GET /missions/{id}", s.handleMissionGet)
	s.mux.HandleFunc("GET /missions/{id}/events", s.handleMissionEvents)
	s.mux.HandleFunc("GET /scenarios", ScenariosHandler)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the worker pool. In-flight and queued requests complete;
// new submissions are rejected.
func (s *Server) Close() { s.pool.Close() }

// Workers returns the effective scheduling worker count after defaulting.
func (s *Server) Workers() int { return s.pool.Workers() }

// QueueCapacity returns the effective request-queue bound after defaulting.
func (s *Server) QueueCapacity() int { return s.pool.QueueCapacity() }

// writeError emits the uniform JSON error body for n logical requests and
// counts them toward the conservation invariant's error buckets. A 429 also
// counts them as rejected and asks the client to retry in a second.
func (s *Server) writeError(w http.ResponseWriter, status int, err error, n int) {
	switch {
	case status >= 500:
		s.internalErrors.Add(uint64(n))
	case status == http.StatusTooManyRequests:
		s.rejected.Add(uint64(n))
		w.Header().Set("Retry-After", "1")
		fallthrough
	default:
		s.clientErrors.Add(uint64(n))
	}
	WriteError(w, status, err)
}

// refusedStatus is the status of a pool refusal: 429 for a full queue
// (ErrBusy), 503 otherwise (ErrClosed during shutdown).
func refusedStatus(err error) int {
	if errors.Is(err, ErrBusy) {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// flight is one in-flight cache-miss computation. The first request for a
// fingerprint (the leader) creates the flight and computes; concurrent
// requests for the same fingerprint (followers) wait on done and share the
// outcome — body on success, the leader's error and HTTP status otherwise.
type flight struct {
	done   chan struct{}
	body   []byte
	err    error
	status int // HTTP status of the error outcome; 0 when err is nil
	// ctx is the leader's request context. A dequeued job whose leader is
	// gone and whose flight has no waiters computes for nobody — the pool
	// skips it.
	ctx context.Context
	// waiters counts followers attached and still waiting; tests use it to
	// release a blocked leader only once every concurrent request is
	// provably waiting, and the skip check uses it to keep a computation
	// other requests depend on. A follower that gives up (client gone)
	// decrements.
	waiters atomic.Int32
}

// errCancelled marks a flight whose computation was skipped because the
// leader's client disconnected with nobody else waiting. It never reaches a
// response writer: followers can only exist when waiters > 0, which
// prevents the skip.
var errCancelled = errors.New("service: request cancelled before compute")

// serveCached is the cache → singleflight → worker-pool → respond flow
// /schedule, /evaluate and /tune share. It reports how the response was
// served ("hit"/"miss"); ok is false when an error response was written (or
// the client was gone, in which case nothing is written).
//
// cleanup, when non-nil, is called exactly once — on every path — as soon
// as compute can no longer run; handlers use it to return pooled request
// storage whose compute job may outlive the handler (a cancelled leader
// returns early, but its queued job still runs for followers and the
// cache).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, fp Fingerprint, opName string, compute func() ([]byte, error), cleanup func()) (cacheStatus string, ok bool) {
	release := func() {
		if cleanup != nil {
			cleanup()
		}
	}
	if v, hit := s.cacheGet(fp); hit {
		release()
		s.hits.Add(1)
		s.writeCachedResponse(w, v, "hit")
		return "hit", true
	}
	ctx := r.Context()

	// Singleflight: collapse concurrent misses for one fingerprint onto a
	// single computation. Under a zipf-skewed burst, M identical expensive
	// /tune requests cost one pool job, not M.
	s.flightMu.Lock()
	if f, inFlight := s.flights[fp]; inFlight {
		f.waiters.Add(1)
		s.flightMu.Unlock()
		release()
		select {
		case <-f.done:
		case <-ctx.Done():
			// The client is gone; stop waiting and let the skip check see
			// one waiter fewer. The computation itself keeps running — its
			// result still feeds the cache and any remaining waiters.
			f.waiters.Add(-1)
			s.cancelled.Add(1)
			return "", false
		}
		if f.err != nil {
			s.writeError(w, f.status, f.err, 1)
			return "", false
		}
		// A follower is observably a cache hit: it is served bytes another
		// request computed. SingleflightShared additionally records that the
		// hit came from attaching to a live flight rather than the cache.
		s.hits.Add(1)
		s.singleflightShared.Add(1)
		s.writeCachedResponse(w, f.body, "hit")
		return "hit", true
	}
	// Re-check the cache before becoming the leader: a flight that finished
	// between the miss above and taking flightMu has already published its
	// bytes (finish puts into the cache before retiring the flight), so this
	// second look closes the window — absent eviction, one fingerprint can
	// never be computed twice.
	if v, hit := s.cacheGet(fp); hit {
		s.flightMu.Unlock()
		release()
		s.hits.Add(1)
		s.writeCachedResponse(w, v, "hit")
		return "hit", true
	}
	f := &flight{done: make(chan struct{}), ctx: ctx}
	s.flights[fp] = f
	s.flightMu.Unlock()

	// finish publishes the job's outcome: fill the flight, on success the
	// cache, and only then retire the flight — a request that arrives after
	// the delete finds the bytes in the cache, so there is no window in
	// which a successful computation is invisible.
	finish := func(body []byte, err error, status int) {
		f.body, f.err, f.status = body, err, status
		if err == nil {
			s.cachePut(fp, body)
		}
		s.flightMu.Lock()
		delete(s.flights, fp)
		s.flightMu.Unlock()
		close(f.done)
	}

	// Compute on the bounded pool. The job owns finish: it runs even when
	// the leader's handler has already returned, so followers and the cache
	// always get the outcome. The leader observes it through f.done like a
	// follower would.
	submitErr := s.pool.TrySubmit(func() {
		defer release()
		// Skip a request nobody wants: the leader's client is gone and no
		// follower attached. The check holds flightMu so no follower can
		// attach between the decision and the flight's retirement.
		s.flightMu.Lock()
		if f.ctx.Err() != nil && f.waiters.Load() == 0 {
			delete(s.flights, fp)
			s.flightMu.Unlock()
			f.err, f.status = errCancelled, http.StatusServiceUnavailable
			close(f.done)
			return
		}
		s.flightMu.Unlock()
		body, err := s.protect(fp, compute)
		if err != nil {
			finish(nil, fmt.Errorf("%s failed: %w", opName, err), http.StatusInternalServerError)
			return
		}
		finish(body, nil, 0)
	})
	if submitErr != nil {
		release()
		status := refusedStatus(submitErr)
		finish(nil, submitErr, status)
		s.writeError(w, status, submitErr, 1)
		return "", false
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		// The client is gone. The queued job still runs (or skips itself);
		// this handler just stops pinning a goroutine on it.
		s.cancelled.Add(1)
		return "", false
	}
	if errors.Is(f.err, errCancelled) {
		// The job observed the dead context before this handler could; the
		// request is cancelled either way.
		s.cancelled.Add(1)
		return "", false
	}
	if f.err != nil {
		s.writeError(w, f.status, f.err, 1)
		return "", false
	}
	s.misses.Add(1)
	s.writeCachedResponse(w, f.body, "miss")
	return "miss", true
}

func (s *Server) writeCachedResponse(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheStatusHeader, cacheStatus)
	w.Write(body)
}

func (s *Server) logRequest(r *http.Request, path, detail, cacheStatus string, start time.Time) {
	if s.cfg.Log == nil {
		return
	}
	s.cfg.Log.Printf("%s %s %s cache=%s took=%s",
		r.RemoteAddr, path, detail, cacheStatus,
		time.Since(start).Round(time.Microsecond))
}

// schedSet is a set of schedulers, as a bit mask over Server.schedNames: the
// form in which a front-index alias carries the counters to replay.
type schedSet uint64

// schedBit is the singleton set of a canonical registry name (empty for a
// name the registry does not know, which validation rules out).
func (s *Server) schedBit(name string) schedSet {
	i, ok := s.schedIndex[name]
	if !ok {
		return 0
	}
	return 1 << i
}

// countSchedulers bumps the request counter of every scheduler in the set.
func (s *Server) countSchedulers(set schedSet) {
	for ; set != 0; set &= set - 1 {
		s.schedReqs[bits.TrailingZeros64(uint64(set))].Add(1)
	}
}

// protect runs what a pool job computes for the request fp names and turns
// a panic in it — a scheduler bug met on a pathological instance — into the
// computation's error. The request then ends like any failed computation: a
// 500, which here names the fingerprint prefix, for the leader and for every
// follower of its flight, nothing cached, the worker and the process alive.
func (s *Server) protect(fp Fingerprint, compute func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			body, err = nil, fmt.Errorf("panic computing request %x: %v", fp[:4], p)
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("%v\n%s", err, debug.Stack())
			}
		}
	}()
	return compute()
}

// seededRands recycles solve's tie-breaking generators: a lazyrand source
// restarts at a request's seed in O(1), drawing what lazyrand.New(seed) would.
var seededRands sync.Pool

// solve runs the scheduling part shared by /schedule and /evaluate: run the
// requested heuristic through the scheduler registry, on the instance's
// remembered bottom levels, and validate the result.
func (s *Server) solve(req *ScheduleRequest) (*sched.Schedule, error) {
	g, p, cm := req.Graph, req.Platform, req.Costs
	var rng *rand.Rand
	if req.Seed != 0 {
		if rng, _ = seededRands.Get().(*rand.Rand); rng != nil {
			rng.Seed(req.Seed)
		} else {
			rng = lazyrand.New(req.Seed)
		}
		defer seededRands.Put(rng)
	}
	schedule, err := sched.Run(req.Scheduler, g, p, cm, sched.RunOptions{
		Epsilon:      req.Epsilon,
		Rng:          rng,
		BottomLevels: req.bottomLevels(),
		Policy:       req.Policy,
	})
	if err != nil {
		return nil, err
	}
	if err := schedule.Validate(); err != nil {
		return nil, fmt.Errorf("generated schedule failed validation: %w", err)
	}
	return schedule, nil
}

// runSchedule is the /schedule cache-miss path.
func (s *Server) runSchedule(req *ScheduleRequest) ([]byte, error) {
	schedule, err := s.solve(req)
	if err != nil {
		return nil, err
	}
	return buildResponse(req, schedule)
}

// runEvaluate is the /evaluate cache-miss path: schedule, then replay the
// fault-injection batch. Evaluate runs single-worker inside the job —
// request-level parallelism is the serving layer's worker pool, so one
// oversized batch cannot oversubscribe the host; determinism is unaffected
// (the result is worker-count independent by construction).
func (s *Server) runEvaluate(req *EvaluateRequest) ([]byte, error) {
	schedule, err := s.solve(&req.ScheduleRequest)
	if err != nil {
		return nil, err
	}
	gen, err := req.Scenario.Generator()
	if err != nil {
		return nil, err
	}
	res, err := sim.Evaluate(schedule, gen, req.Trials, sim.EvalOptions{
		Seed:    req.EvalSeed,
		Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	resp := &EvaluateResponse{
		Scheduler:  schedule.Algorithm,
		Epsilon:    schedule.Epsilon,
		Tasks:      req.Graph.NumTasks(),
		Procs:      req.Platform.NumProcs(),
		Pattern:    schedule.CommPattern.String(),
		LowerBound: schedule.LowerBound(),
		UpperBound: schedule.UpperBound(),
		Scenario:   req.Scenario.String(),
		Eval:       *res,
	}
	// Policy mode: score each requested mission policy on the same scenario
	// draws (same generator, same per-trial seeds), so static and
	// re-scheduling are compared trial for trial.
	if len(req.Policies) > 0 {
		spec := mission.Spec{
			Graph:        req.Graph,
			Platform:     req.Platform,
			Costs:        req.Costs,
			Scheduler:    req.Scheduler,
			Epsilon:      req.Epsilon,
			SchedPolicy:  req.Policy,
			Seed:         req.Seed,
			BottomLevels: req.bottomLevels(),
		}
		resp.PolicyEval = make([]PolicyEvalResult, 0, len(req.Policies))
		for _, p := range req.Policies {
			spec.Policy = mission.Policy(p)
			pres, err := mission.EvaluatePolicy(spec, gen, req.Trials, sim.EvalOptions{
				Seed:    req.EvalSeed,
				Workers: 1,
			})
			if err != nil {
				return nil, err
			}
			resp.PolicyEval = append(resp.PolicyEval, PolicyEvalResult{Policy: p, Eval: *pres})
		}
	}
	// Adversarial mode: a deterministic worst-case column next to the
	// Monte-Carlo mean. The search is single-threaded and seeds nothing,
	// so the response stays byte-identical at any worker or shard count.
	if req.WorstCase != nil {
		wc, err := sim.WorstCase(schedule, *req.WorstCase, sim.Options{})
		if err != nil {
			return nil, err
		}
		resp.WorstCase = wc
	}
	return Encode(resp)
}

// buildResponse turns a validated schedule into the serialized response.
func buildResponse(req *ScheduleRequest, schedule *sched.Schedule) ([]byte, error) {
	m, err := schedule.ComputeMetrics()
	if err != nil {
		return nil, err
	}
	resp := &ScheduleResponse{
		Scheduler:  schedule.Algorithm,
		Epsilon:    schedule.Epsilon,
		Tasks:      req.Graph.NumTasks(),
		Procs:      req.Platform.NumProcs(),
		Pattern:    schedule.CommPattern.String(),
		LowerBound: m.LowerBound,
		UpperBound: m.UpperBound,
		Messages:   m.Messages,
		Metrics: ResponseMetrics{
			TotalWork:         m.TotalWork,
			Replicas:          m.Replicas,
			ReplicationFactor: m.ReplicationFactor,
			CommVolume:        m.CommVolume,
			Horizon:           m.Horizon,
			MeanUtilization:   m.MeanUtilization,
			MinUtilization:    m.MinUtilization,
			MaxUtilization:    m.MaxUtilization,
		},
	}
	if req.Lambda > 0 {
		mission := m.UpperBound
		surv, err := reliability.SurvivalLowerBound(
			reliability.Exponential{Lambda: req.Lambda},
			req.Platform.NumProcs(), schedule.Epsilon, mission)
		if err != nil {
			return nil, err
		}
		resp.Reliability = &ResponseReliability{
			Lambda:             req.Lambda,
			Mission:            mission,
			SurvivalLowerBound: surv,
		}
	}
	if req.IncludeSchedule {
		var indented bytes.Buffer
		if _, err := schedule.WriteTo(&indented); err != nil {
			return nil, err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			return nil, err
		}
		resp.Schedule = json.RawMessage(compact.Bytes())
	}
	if req.IncludeGantt {
		order, lo := schedule.ProcOrder()
		resp.Gantt = make([]ProcTimeline, len(lo)-1)
		for proc := range resp.Gantt {
			line := order[lo[proc]:lo[proc+1]]
			row := ProcTimeline{Proc: platform.ProcID(proc), Spans: make([]GanttSpan, 0, len(line))}
			for _, r := range line {
				row.Spans = append(row.Spans, GanttSpan{
					Task: r.Task, Copy: r.Copy,
					StartMin: r.StartMin, FinishMin: r.FinishMin,
					StartMax: r.StartMax, FinishMax: r.FinishMax,
				})
			}
			resp.Gantt[proc] = row
		}
	}
	return Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// Stats is the body of GET /stats.
type Stats struct {
	// Shard labels the server when it runs as one worker of a sharded
	// deployment (Config.Shard); empty for a standalone server.
	Shard string `json:"shard,omitempty"`
	// Requests counts logical requests received, including rejected and
	// malformed ones; EvaluateRequests, TuneRequests and MissionRequests
	// are the /evaluate, /tune and POST /missions shares of that total. A
	// well-formed /schedule/batch envelope counts as one request per item
	// it carries (a malformed one as a single request). The counters
	// conserve: every request ends in exactly one of cache_hits,
	// cache_misses, client_errors, internal_errors or cancelled_requests
	// (429s count under both rejected and client_errors). Mission GETs are
	// uncounted reads, like /stats itself.
	Requests         uint64 `json:"requests"`
	EvaluateRequests uint64 `json:"evaluate_requests"`
	TuneRequests     uint64 `json:"tune_requests"`
	MissionRequests  uint64 `json:"mission_requests"`
	// BatchRequests counts /schedule/batch envelopes received (malformed
	// ones included); BatchItems counts the logical requests that
	// well-formed envelopes carried (each also counted under Requests).
	BatchRequests uint64 `json:"batch_requests"`
	BatchItems    uint64 `json:"batch_items"`
	// CacheHits and CacheMisses count served responses by path, all
	// endpoints together; HitRate is hits/(hits+misses), 0 before any
	// response is served. SingleflightShared is the subset of CacheHits that
	// were served by attaching to an in-flight identical computation
	// (concurrent duplicates collapsed to one pool job, or repeated items
	// inside one batch). BodyHits is the subset of CacheHits answered from
	// the body-digest front index: byte-identical repeats of a body already
	// served as a hit, which were neither decoded nor fingerprinted.
	CacheHits          uint64  `json:"cache_hits"`
	CacheMisses        uint64  `json:"cache_misses"`
	SingleflightShared uint64  `json:"singleflight_shared"`
	BodyHits           uint64  `json:"body_hits"`
	HitRate            float64 `json:"hit_rate"`
	// CacheEntries is the current response-cache population.
	CacheEntries int `json:"cache_entries"`
	// SchedulerRequests counts well-formed requests by canonical registry
	// scheduler name (hits and misses alike): /schedule and /evaluate bump
	// their one scheduler, and a /tune request bumps every distinct
	// scheduler in its derived candidate grid — the table answers "which
	// schedulers does traffic exercise", so a sweep counts for each.
	// Schedulers never requested are absent.
	SchedulerRequests map[string]uint64 `json:"scheduler_requests"`
	// Rejected counts 429s (queue full); ClientErrors counts 4xx;
	// InternalErrors counts all 5xx, including 503s during shutdown.
	// CancelledRequests counts requests whose client disconnected before a
	// response was computed — they end in no hit, miss or error bucket, so
	// the conservation invariant carries them as their own term.
	Rejected          uint64 `json:"rejected"`
	ClientErrors      uint64 `json:"client_errors"`
	InternalErrors    uint64 `json:"internal_errors"`
	CancelledRequests uint64 `json:"cancelled_requests"`
	// Missions is the retained mission-state population (running and
	// finished), bounded by Config.MaxMissions.
	Missions int `json:"missions"`
	// Queue and worker occupancy at the time of the call. QueueDepth is
	// instantaneous — under load it reads almost always 0 (drained) or the
	// capacity (rejecting) — while QueueHighWater is the deepest admission
	// depth ever observed, the number a capacity report should quote.
	QueueDepth     int `json:"queue_depth"`
	QueueHighWater int `json:"queue_high_water"`
	QueueCapacity  int `json:"queue_capacity"`
	Workers        int `json:"workers"`
	// Latency summarizes every successful POST round trip since start
	// (body read through response write), hits and misses alike: the exact
	// merge of LatencyByEndpoint, which splits it by endpoint path and cache
	// status ("hit", "miss"). A cell appears with its first sample.
	Latency           stats.Summary                       `json:"latency"`
	LatencyByEndpoint map[string]map[string]stats.Summary `json:"latency_by_endpoint"`
}

// Latency is the serving tier's latency instrument: one stats.Histogram per
// endpoint path × cache status, each allocated on its first sample, exact in
// count, mean and max since start. A Server and a coordinator's door each
// own one. The zero value is ready to use; it is safe for concurrent use.
type Latency struct {
	mu    sync.Mutex
	cells map[latencyCell]*stats.Histogram
}

type latencyCell struct{ path, cacheStatus string }

// Record adds one request to path that was answered with cacheStatus after d.
func (l *Latency) Record(path, cacheStatus string, d time.Duration) {
	cell := latencyCell{path, cacheStatus}
	l.mu.Lock()
	h := l.cells[cell]
	if h == nil {
		if l.cells == nil {
			l.cells = make(map[latencyCell]*stats.Histogram)
		}
		h = new(stats.Histogram)
		l.cells[cell] = h
	}
	h.Record(int64(d))
	l.mu.Unlock()
}

// Summaries reports the exact merge of every cell, and each cell by path and
// cache status; a cell without samples is absent.
func (l *Latency) Summaries() (all stats.Summary, byEndpoint map[string]map[string]stats.Summary) {
	var merged stats.Histogram
	byEndpoint = make(map[string]map[string]stats.Summary)
	l.mu.Lock()
	defer l.mu.Unlock()
	for cell, h := range l.cells {
		merged.Merge(h)
		if byEndpoint[cell.path] == nil {
			byEndpoint[cell.path] = make(map[string]stats.Summary)
		}
		byEndpoint[cell.path][cell.cacheStatus] = h.Summary()
	}
	return merged.Summary(), byEndpoint
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.hits.Load(), s.misses.Load()
	bySched := make(map[string]uint64, len(s.schedNames))
	for i, name := range s.schedNames {
		if n := s.schedReqs[i].Load(); n > 0 {
			bySched[name] = n
		}
	}
	s.missionMu.Lock()
	missionCount := len(s.missions)
	s.missionMu.Unlock()
	st := Stats{
		Shard:              s.cfg.Shard,
		Requests:           s.requests.Load(),
		EvaluateRequests:   s.evaluateRequests.Load(),
		TuneRequests:       s.tuneRequests.Load(),
		MissionRequests:    s.missionRequests.Load(),
		BatchRequests:      s.batchRequests.Load(),
		BatchItems:         s.batchItems.Load(),
		CacheHits:          hits,
		CacheMisses:        misses,
		SingleflightShared: s.singleflightShared.Load(),
		BodyHits:           s.bodyHits.Load(),
		CacheEntries:       s.cache.Len(),
		SchedulerRequests:  bySched,
		Rejected:           s.rejected.Load(),
		ClientErrors:       s.clientErrors.Load(),
		InternalErrors:     s.internalErrors.Load(),
		CancelledRequests:  s.cancelled.Load(),
		Missions:           missionCount,
		QueueDepth:         s.pool.QueueDepth(),
		QueueHighWater:     s.pool.QueueHighWater(),
		QueueCapacity:      s.pool.QueueCapacity(),
		Workers:            s.pool.Workers(),
	}
	if hits+misses > 0 {
		st.HitRate = float64(hits) / float64(hits+misses)
	}
	st.Latency, st.LatencyByEndpoint = s.lat.Summaries()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}
