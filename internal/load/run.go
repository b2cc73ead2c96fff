package load

import (
	"fmt"
	"time"

	"ftsched/internal/par"
	"ftsched/internal/stats"
)

// CostFn models a request's virtual service time in deterministic mode: it
// sees the synthesized request and the server's actual response (status and
// cache disposition), and returns how long the call is deemed to have
// taken. Tests inject stalls through it; DefaultCost is the seeded default.
type CostFn func(req *Request, res Result) time.Duration

// DefaultCost is the deterministic service-time model: a seeded hash of the
// request index drawn uniformly per request, scaled by endpoint cost class
// (/evaluate ~4×, /tune ~12× a /schedule solve), with cache hits collapsing
// to tens of microseconds the way the real byte-cache does. The model is a
// stand-in for wall time, not a measurement — its purpose is exercising the
// pacing/correction/histogram pipeline reproducibly.
func DefaultCost(seed int64) CostFn {
	return func(req *Request, res Result) time.Duration {
		h := uint64(requestSeed(seed^0x6c6f6164, req.Index)) // "load", a stream distinct from parameter draws
		if res.Cache == "hit" {
			return time.Duration(30_000 + h%50_000) // 30–80 µs
		}
		d := time.Duration(300_000 + h%900_000) // 0.3–1.2 ms
		switch req.Endpoint {
		case "evaluate":
			d *= 4
		case "tune":
			d *= 12
		}
		return d
	}
}

// Options configures a load run.
type Options struct {
	// Mode is "closed" (default), "open" or "search".
	Mode string
	// Workers is the closed-loop worker count / open-loop sender cap
	// (default 4). In deterministic closed-loop mode it does not affect
	// the report — see Report.ElapsedSeconds.
	Workers int
	// Think is the per-worker pause after each request; closed mode only.
	Think time.Duration
	// Requests is the total request budget per run (per probe in search
	// mode; default 1000).
	Requests int
	// Warmup replays the first Warmup indices of the request stream,
	// unrecorded and unpaced, before any measurement — it primes the
	// server's response cache so the measured run (every probe alike in
	// search mode) sees steady-state hit behavior instead of charging the
	// cold cache to whichever requests arrive first.
	Warmup int
	// Rate is the open-loop arrival rate in requests/second (default 200).
	Rate float64
	// Shards echoes how many worker shards serve behind the target (0: a
	// plain unsharded server). The runner does not build the deployment —
	// the caller does — so the report records which deployment it measured.
	Shards int
	// Seed drives every random choice; ZipfS is the popularity exponent.
	// The zero value picks the default skew 1.0; pass ZipfUniform for an
	// unskewed draw (s = 0).
	Seed  int64
	ZipfS float64
	// Corpus and Profile describe the workload; zero values pick the
	// defaults (16-instance random corpus, "mixed" profile).
	Corpus  CorpusSpec
	Profile Profile
	// Deterministic switches to the virtual clock: requests are issued
	// sequentially in stream order, recorded latencies come from Cost, and
	// the report is byte-identical across runs — in closed-loop mode also
	// across worker counts (the open-loop sender cap is part of the model,
	// so changing it legitimately changes backlog and corrected latency).
	Deterministic bool
	// Cost is the deterministic service-time model (nil: DefaultCost(Seed)).
	Cost CostFn
	// SLO is the corrected-p99 objective of search mode (default 20ms);
	// ErrorBudget the tolerated error fraction (default 1%).
	SLO         time.Duration
	ErrorBudget float64
	// RateMin and RateMax bracket the capacity search (defaults 10 and
	// 50000 requests/second); SearchProbes bounds its iterations
	// (default 12).
	RateMin, RateMax float64
	SearchProbes     int
}

// ZipfUniform is the ZipfS sentinel for an unskewed (uniform) popularity
// draw; the zero value picks the default skew of 1.0 instead.
const ZipfUniform = -1

func (o Options) withDefaults() Options {
	if o.Mode == "" {
		o.Mode = "closed"
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Requests == 0 {
		o.Requests = 1000
	}
	if o.Rate == 0 {
		o.Rate = 200
	}
	switch {
	case o.ZipfS == 0:
		o.ZipfS = 1.0
	case o.ZipfS == ZipfUniform:
		o.ZipfS = 0
	}
	if o.Profile.Name == "" && o.Profile.Schedulers == nil {
		o.Profile, _ = ProfileByName("mixed")
	}
	if o.Cost == nil {
		o.Cost = DefaultCost(o.Seed)
	}
	if o.SLO == 0 {
		o.SLO = 20 * time.Millisecond
	}
	if o.ErrorBudget == 0 {
		o.ErrorBudget = 0.01
	}
	if o.RateMin == 0 {
		o.RateMin = 10
	}
	if o.RateMax == 0 {
		o.RateMax = 50000
	}
	if o.SearchProbes == 0 {
		o.SearchProbes = 12
	}
	return o
}

func (o Options) validate() error {
	switch o.Mode {
	case "closed", "open", "search":
	default:
		return fmt.Errorf("load: unknown mode %q (known: closed, open, search)", o.Mode)
	}
	if o.Workers < 1 {
		return fmt.Errorf("load: need workers >= 1, got %d", o.Workers)
	}
	if o.Requests < 1 {
		return fmt.Errorf("load: need requests >= 1, got %d", o.Requests)
	}
	if o.Mode == "open" && o.Rate <= 0 {
		return fmt.Errorf("load: open-loop mode needs rate > 0, got %g", o.Rate)
	}
	if o.Mode == "search" {
		if o.RateMin <= 0 || o.RateMax <= o.RateMin {
			return fmt.Errorf("load: search needs 0 < rate-min < rate-max, got [%g, %g]", o.RateMin, o.RateMax)
		}
		if o.SLO <= 0 {
			return fmt.Errorf("load: search needs a positive p99 SLO, got %v", o.SLO)
		}
	}
	if o.Think < 0 {
		return fmt.Errorf("load: think time must be >= 0, got %v", o.Think)
	}
	if o.Think > 0 && o.Mode != "closed" {
		return fmt.Errorf("load: think time applies to the closed loop only, not mode %q", o.Mode)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("load: warmup must be >= 0, got %d", o.Warmup)
	}
	if o.Shards < 0 {
		return fmt.Errorf("load: shards must be >= 0, got %d", o.Shards)
	}
	return nil
}

// Endpoint indices of the recorder's fixed array; a fixed layout keeps the
// concurrent hot path free of map hashing and locks.
const (
	epSchedule = iota
	epEvaluate
	epTune
	numEndpoints
)

var endpointNames = [numEndpoints]string{"schedule", "evaluate", "tune"}

func epIndex(name string) int {
	switch name {
	case "schedule":
		return epSchedule
	case "evaluate":
		return epEvaluate
	default:
		return epTune
	}
}

// endpointRec accumulates one endpoint's counters and histograms. Latencies
// are recorded in nanoseconds.
type endpointRec struct {
	requests, ok, rejected, clientErr, serverErr, transportErr uint64
	hits, misses                                               uint64
	lat                                                        stats.Histogram // corrected (from intended send)
	svc                                                        stats.Histogram // uncorrected (from actual send)
}

// recorder accumulates a run (or one worker's share of it).
type recorder struct {
	eps [numEndpoints]endpointRec
}

func (r *recorder) observe(ep int, res Result, latNs, svcNs int64) {
	e := &r.eps[ep]
	e.requests++
	switch {
	case res.Err != nil:
		e.transportErr++
	case res.Status == 429:
		e.rejected++
	case res.Status >= 500:
		e.serverErr++
	case res.Status >= 400:
		e.clientErr++
	default:
		e.ok++
	}
	switch res.Cache {
	case "hit":
		e.hits++
	case "miss":
		e.misses++
	}
	e.lat.Record(latNs)
	e.svc.Record(svcNs)
}

// add folds o into e; exact, order-independent.
func (e *endpointRec) add(o *endpointRec) {
	e.requests += o.requests
	e.ok += o.ok
	e.rejected += o.rejected
	e.clientErr += o.clientErr
	e.serverErr += o.serverErr
	e.transportErr += o.transportErr
	e.hits += o.hits
	e.misses += o.misses
	e.lat.Merge(&o.lat)
	e.svc.Merge(&o.svc)
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	for i := range r.eps {
		r.eps[i].add(&o.eps[i])
	}
}

// total folds every endpoint into one aggregate view.
func (r *recorder) total() *endpointRec {
	var t endpointRec
	for i := range r.eps {
		t.add(&r.eps[i])
	}
	return &t
}

func (e *endpointRec) report(open bool) *EndpointReport {
	er := &EndpointReport{
		Requests:        e.requests,
		OK:              e.ok,
		Rejected:        e.rejected,
		ClientErrors:    e.clientErr,
		ServerErrors:    e.serverErr,
		TransportErrors: e.transportErr,
		CacheHits:       e.hits,
		CacheMisses:     e.misses,
		Latency:         e.lat.Summary(),
	}
	if e.hits+e.misses > 0 {
		er.HitRate = float64(e.hits) / float64(e.hits+e.misses)
	}
	if open {
		svc := e.svc.Summary()
		er.Service = &svc
	}
	return er
}

// errRate is the fraction of requests that did not get a 2xx/4xx answer —
// the health signal capacity search budgets (4xx are the client's fault and
// excluded; a correct profile produces none).
func (e *endpointRec) errRate() float64 {
	if e.requests == 0 {
		return 0
	}
	return float64(e.rejected+e.serverErr+e.transportErr) / float64(e.requests)
}

// Run executes one load run against the target and builds its report.
func Run(target Target, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	corpus, err := BuildCorpus(opts.Corpus)
	if err != nil {
		return nil, err
	}
	sy, err := NewSynthesizer(corpus, opts.Profile, opts.ZipfS, opts.Seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Mode:          opts.Mode,
		Deterministic: opts.Deterministic,
		Seed:          opts.Seed,
		ZipfS:         opts.ZipfS,
		Corpus:        corpus.Spec(),
		Profile:       opts.Profile,
		ThinkMs:       float64(opts.Think) / float64(time.Millisecond),
		Warmup:        opts.Warmup,
		Shards:        opts.Shards,
	}
	// Warmup: replay the head of the stream unrecorded so the measured run
	// starts against a primed cache. Sequential like the deterministic
	// engines, so it perturbs nothing.
	for i := 0; i < opts.Warmup; i++ {
		req, err := sy.Request(uint64(i))
		if err != nil {
			return nil, err
		}
		target.Do(req.Path, req.Body)
	}

	if opts.Mode == "search" {
		if err := runSearch(target, sy, opts, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	if opts.Mode == "open" {
		rep.RatePerSec = opts.Rate
	}
	rec, elapsedNs, err := measure(target, sy, opts, rep.RatePerSec)
	if err != nil {
		return nil, err
	}
	fillReport(rep, rec, elapsedNs, rep.RatePerSec > 0)
	return rep, nil
}

// measure runs one measured pass at an open-loop arrival rate, or the closed
// loop when rate is 0, on the clock Options.Deterministic selects. It
// returns the pass's recorder and elapsed nanoseconds.
func measure(target Target, sy *Synthesizer, opts Options, rate float64) (*recorder, int64, error) {
	rec := new(recorder)
	run := runWall
	if opts.Deterministic {
		run = runVirtual
	}
	elapsedNs, err := run(target, sy, opts, rate, rec)
	return rec, elapsedNs, err
}

// fillReport finishes the report from the merged recorder.
func fillReport(rep *Report, rec *recorder, elapsedNs int64, open bool) {
	rep.Endpoints = make(map[string]*EndpointReport)
	for i := range rec.eps {
		if rec.eps[i].requests > 0 {
			rep.Endpoints[endpointNames[i]] = rec.eps[i].report(open)
		}
	}
	t := rec.total()
	rep.Total = *t.report(open)
	rep.Requests = t.requests
	rep.ElapsedSeconds = float64(elapsedNs) / 1e9
	if rep.ElapsedSeconds > 0 {
		rep.Throughput = float64(t.requests) / rep.ElapsedSeconds
	}
}

// runWall measures on the wall clock: par.For's Workers goroutines take
// indices from the shared request stream, one private recorder each, merged
// afterwards in worker order; a synthesis error stops every worker. With a
// rate (the open loop) request i has an intended send time start + i/rate; a
// worker sleeps until it, and latency is measured from the intended time, so
// sender backlog (all Workers busy past a request's slot) is charged to the
// affected requests instead of being silently omitted — the
// coordinated-omission correction. With rate 0 (the closed loop) the
// intended time is the actual send time.
func runWall(target Target, sy *Synthesizer, opts Options, rate float64, out *recorder) (int64, error) {
	recs := make([]recorder, par.Workers(opts.Workers, opts.Requests))
	interval := float64(time.Second) / rate
	start := time.Now()
	err := par.For(len(recs), opts.Requests, func(w, i int) error {
		req, err := sy.Request(uint64(i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		intended := t0
		if rate > 0 {
			intended = start.Add(time.Duration(float64(i) * interval))
			time.Sleep(time.Until(intended))
			t0 = time.Now()
		}
		res := target.Do(req.Path, req.Body)
		end := time.Now()
		recs[w].observe(epIndex(req.Endpoint), res,
			end.Sub(intended).Nanoseconds(), end.Sub(t0).Nanoseconds())
		time.Sleep(opts.Think)
		return nil
	})
	elapsed := time.Since(start).Nanoseconds()
	if err != nil {
		return 0, err
	}
	for w := range recs {
		out.merge(&recs[w])
	}
	return elapsed, nil
}

// runSearch binary-searches the highest open-loop arrival rate whose
// corrected p99 meets the SLO within the error budget, then reruns at that
// rate so the report's latency section describes the recommended operating
// point rather than an arbitrary probe.
func runSearch(target Target, sy *Synthesizer, opts Options, rep *Report) error {
	capRep := &CapacityReport{
		SLOP99Ms:    float64(opts.SLO) / float64(time.Millisecond),
		ErrorBudget: opts.ErrorBudget,
	}
	probe := func(rate float64) (*recorder, int64, *CapacityIteration, error) {
		rec, elapsedNs, err := measure(target, sy, opts, rate)
		if err != nil {
			return nil, 0, nil, err
		}
		t := rec.total()
		it := &CapacityIteration{
			RatePerSec: rate,
			P99Ms:      float64(t.lat.Quantile(0.99)) / float64(time.Millisecond),
			ErrorRate:  t.errRate(),
		}
		it.OK = it.P99Ms <= capRep.SLOP99Ms && it.ErrorRate <= opts.ErrorBudget
		return rec, elapsedNs, it, nil
	}

	// Establish the bracket: if even RateMin fails, capacity is 0; if
	// RateMax passes, it is the answer (the search cannot see past it).
	lo, hi := opts.RateMin, opts.RateMax
	_, _, itMin, err := probe(lo)
	if err != nil {
		return err
	}
	capRep.Iterations = append(capRep.Iterations, *itMin)
	good := 0.0
	if itMin.OK {
		good = lo
		for i := 1; i < opts.SearchProbes; i++ {
			mid := (lo + hi) / 2
			_, _, it, err := probe(mid)
			if err != nil {
				return err
			}
			capRep.Iterations = append(capRep.Iterations, *it)
			if it.OK {
				lo, good = mid, mid
			} else {
				hi = mid
			}
			if hi-lo < 0.02*hi {
				break
			}
		}
	}
	capRep.MaxRatePerSec = good

	// Final run at the recommended rate (or the floor probe if nothing
	// passed) for the report body.
	finalRate := good
	if finalRate == 0 {
		finalRate = opts.RateMin
	}
	rec, elapsedNs, _, err := probe(finalRate)
	if err != nil {
		return err
	}
	rep.RatePerSec = finalRate
	fillReport(rep, rec, elapsedNs, true)
	rep.Capacity = capRep
	return nil
}
