package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ftsched/internal/coord"
	"ftsched/internal/dag"
	"ftsched/internal/expt"
	"ftsched/internal/load"
	"ftsched/internal/sched"
	"ftsched/internal/service"
	"ftsched/internal/sim"
	"ftsched/internal/tune"
)

// span is one timed interval of the traced pass. Spans are recorded from this
// package, around calls into each layer's exported functions; nothing inside
// the program is instrumented. A span named after a per-layer metric is a
// sample of it: the metric is the p50 of those spans' self time (duration
// minus child spans) per op, in the metric's unit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`  // -1: a root
	Req    int    `json:"request"` // replayed stream index; -1 for a layer probe
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops is the number of operations a batched span covers (a cache lookup
	// is cheaper than reading the clock twice).
	Ops int `json:"ops"`
}

// tracer keeps spans in memory; writeSpans stores them when the pass is over.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Ops: 1,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// do records f as one span.
func (t *tracer) do(name string, parent, req int, f func()) time.Duration {
	id := t.begin(name, parent, req)
	f()
	return t.end(id)
}

// selfTimes returns, by span name, every span's self time per op in ns.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[s.ID])/float64(s.Ops))
	}
	return out
}

func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var unitNs = map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}

// batch is the op count of a span around an operation too cheap to time alone.
const batch = 64

// tracedPass produces the per-layer metrics: it replays the head of the
// workload's own request stream through a bare server, a coordinator and a
// loopback listener, single-threaded and in request order, then probes every
// layer on the run's corpus. A workload without a request stream (campaign)
// replays the probe stream, so that every traced run fills the whole table.
func (b *bench) tracedPass(wl *workload, last *served) (map[string]value, []span, error) {
	tr := &tracer{t0: time.Now()}
	extra := make(map[string][]float64) // derived samples, in ns, by metric name
	counters := make(map[string]float64)

	corpus, st, err := b.traceInputs(tr, wl, last, extra)
	if err != nil {
		return nil, nil, err
	}
	pool, err := b.probeService(tr, corpus)
	if err != nil {
		return nil, nil, err
	}
	if err := b.replay(tr, wl, st, last == nil, median(pool), extra, counters); err != nil {
		return nil, nil, err
	}
	if err := b.probeSolvers(tr, extra); err != nil {
		return nil, nil, err
	}
	if err := b.probeCampaign(tr, counters); err != nil {
		return nil, nil, err
	}

	// What the bookkeeping itself costs, as a share of the pass.
	traced := time.Since(tr.t0)
	n := len(tr.spans)
	calib := time.Now()
	for i := 0; i < 4096; i++ {
		tr.end(tr.begin("trace.calibration", -1, -1))
	}
	perSpan := time.Since(calib) / 4096
	tr.spans = tr.spans[:n]
	counters["trace.overhead_share"] = float64(perSpan) * float64(n) / float64(traced)

	self := tr.selfTimes()
	out := make(map[string]value)
	for _, d := range perLayer {
		switch {
		case len(self[d.Name]) > 0:
			out[d.Name] = value{Value: median(self[d.Name]) / unitNs[d.Unit], Unit: d.Unit, Samples: len(self[d.Name])}
		case len(extra[d.Name]) > 0:
			scale := unitNs[d.Unit]
			if scale == 0 {
				scale = 1 // counts
			}
			out[d.Name] = value{Value: median(extra[d.Name]) / scale, Unit: d.Unit, Samples: len(extra[d.Name])}
		default:
			if v, ok := counters[d.Name]; ok {
				out[d.Name] = value{Value: v, Unit: d.Unit, Samples: 1}
			}
		}
	}
	return out, tr.spans, nil
}

// traceInputs returns the corpus and the stream the replay uses, timing the
// load layer on the way.
func (b *bench) traceInputs(tr *tracer, wl *workload, last *served, extra map[string][]float64) (*load.Corpus, *stream, error) {
	var corpus *load.Corpus
	for i := 0; i < 3; i++ {
		var err error
		tr.do("load.corpus_build_ms", -1, -1, func() { corpus, err = load.BuildCorpus(b.sz.Corpus) })
		if err != nil {
			return nil, nil, err
		}
	}
	if last != nil {
		return corpus, last.st, nil
	}
	sy, err := load.NewSynthesizer(corpus, probeProfile(), zipfS, b.seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := buildStream(sy, corpus.Spec(), max(1, wl.TraceRequests/b.sz.TraceScale), "", b.clients)
	return corpus, st, err
}

// probeService times the serving layer's pieces on probe requests of every
// kind: decoders, fingerprints, the cache at capacity, the pool hop and the
// routing hash. It returns the pool round-trip samples (ns) for the replay's
// reconciliation.
func (b *bench) probeService(tr *tracer, corpus *load.Corpus) ([]float64, error) {
	sy, err := load.NewSynthesizer(corpus, probeProfile(), zipfS, b.seed)
	if err != nil {
		return nil, err
	}
	perKind := max(2, 32/b.sz.TraceScale)
	have := map[string]int{}
	var fps []service.Fingerprint
	for i := uint64(0); have["schedule"] < perKind || have["evaluate"] < perKind || have["tune"] < perKind; i++ {
		var req *load.Request
		tr.do("load.synth_us", -1, -1, func() { req, err = sy.Request(i) })
		if err != nil {
			return nil, err
		}
		if have[req.Endpoint] >= perKind {
			continue
		}
		have[req.Endpoint]++
		var fp service.Fingerprint
		body := bytes.NewReader(req.Body)
		switch req.Endpoint {
		case "schedule":
			r := service.AcquireScheduleRequest()
			tr.do("service.decode_schedule_ms", -1, -1, func() { err = service.DecodeScheduleRequestInto(r, body) })
			if err == nil {
				tr.do("service.fingerprint_us", -1, -1, func() { fp = service.RequestFingerprint(r) })
			}
			service.ReleaseScheduleRequest(r)
		case "evaluate":
			var r *service.EvaluateRequest
			tr.do("service.decode_evaluate_ms", -1, -1, func() { r, err = service.DecodeEvaluateRequest(body) })
			if err == nil {
				tr.do("service.fingerprint_us", -1, -1, func() { fp = service.EvaluateFingerprint(r) })
			}
		case "tune":
			var r *service.TuneRequest
			tr.do("service.decode_tune_ms", -1, -1, func() { r, err = service.DecodeTuneRequest(body) })
			if err == nil {
				tr.do("service.fingerprint_us", -1, -1, func() { fp = service.TuneFingerprint(r) })
			}
		}
		if err != nil {
			return nil, fmt.Errorf("probe request %d: %w", i, err)
		}
		fps = append(fps, fp)
	}

	// A cache at capacity: lookups of resident keys, and insertions that
	// each evict.
	const entries = 1024
	cache := service.NewCache(entries, 16)
	key := func(i int) service.Fingerprint {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		return service.Fingerprint(sum[:16])
	}
	payload := make([]byte, 600) // a /schedule response is about this long
	for i := 0; i < entries; i++ {
		cache.Put(key(i), payload)
	}
	rounds := max(2, 32/b.sz.TraceScale)
	for r := 0; r < rounds; r++ {
		id := tr.begin("service.cache_get_ns", -1, -1)
		for i := 0; i < batch; i++ {
			cache.Get(key(entries - 1 - (r*batch+i)%entries))
		}
		tr.end(id)
		tr.spans[id].Ops = batch
	}
	for r := 0; r < rounds; r++ {
		keys := make([]service.Fingerprint, batch)
		for i := range keys {
			keys[i] = key(entries + r*batch + i)
		}
		id := tr.begin("service.cache_put_ns", -1, -1)
		for _, k := range keys {
			cache.Put(k, payload)
		}
		tr.end(id)
		tr.spans[id].Ops = batch
	}
	for r := 0; r < rounds; r++ {
		id := tr.begin("coord.route_ns", -1, -1)
		for i := 0; i < batch; i++ {
			coord.RouteFingerprint(fps[(r*batch+i)%len(fps)], 2)
		}
		tr.end(id)
		tr.spans[id].Ops = batch
	}

	// An empty job through a one-worker pool: submit until it has run.
	pool := service.NewPool(1, 1)
	defer pool.Close()
	var hops []float64
	for i := 0; i < 512/b.sz.TraceScale; i++ {
		done := make(chan struct{})
		var err error
		d := tr.do("service.pool_roundtrip_us", -1, -1, func() {
			if err = pool.TrySubmit(func() { close(done) }); err == nil {
				<-done
			}
		})
		if err != nil {
			return nil, fmt.Errorf("pool probe: %w", err)
		}
		hops = append(hops, float64(d))
	}
	return hops, nil
}

// compute decodes and fingerprints a request as its handler does and returns
// what a cache miss makes the server compute for it: the pieces the handler's
// time is reconciled against. The caller runs the computation at most once; a
// pooled /schedule request that is never computed is simply not recycled.
func compute(endpoint string, body []byte) (service.Fingerprint, func() error, error) {
	r := bytes.NewReader(body)
	switch endpoint {
	case "schedule":
		// Pooled, as the handler decodes; the request goes back to the pool
		// once its computation has run.
		req := service.AcquireScheduleRequest()
		if err := service.DecodeScheduleRequestInto(req, r); err != nil {
			service.ReleaseScheduleRequest(req)
			return service.Fingerprint{}, nil, err
		}
		return service.RequestFingerprint(req), func() error {
			defer service.ReleaseScheduleRequest(req)
			s, err := solve(req)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			_, err = s.ComputeMetrics()
			return err
		}, nil
	case "evaluate":
		req, err := service.DecodeEvaluateRequest(r)
		if err != nil {
			return service.Fingerprint{}, nil, err
		}
		return service.EvaluateFingerprint(req), func() error {
			s, err := solve(&req.ScheduleRequest)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			gen, err := req.Scenario.Generator()
			if err != nil {
				return err
			}
			_, err = sim.Evaluate(s, gen, req.Trials, sim.EvalOptions{Seed: req.EvalSeed, Workers: 1})
			return err
		}, nil
	default:
		req, err := service.DecodeTuneRequest(r)
		if err != nil {
			return service.Fingerprint{}, nil, err
		}
		return service.TuneFingerprint(req), func() error {
			_, err := tune.Run(tune.Spec{Graph: req.Graph, Platform: req.Platform, Costs: req.Costs,
				Epsilons: req.Epsilons, Scenario: req.Scenario, Trials: req.Trials,
				ScreenTrials: req.ScreenTrials, Target: req.Target, Seed: req.EvalSeed, Workers: 1})
			return err
		}, nil
	}
}

// replay sends the head of the stream, one request at a time, through a bare
// server twice (the second answer is a hit whatever the first was), through a
// loopback listener in front of the same server, and through a coordinator
// over two fresh shards twice. Beside each request it performs the request's
// decode, fingerprint, cache lookup and, for a first-seen key, computation
// itself, so that the handler's time splits into what these calls explain and
// an unattributed remainder.
func (b *bench) replay(tr *tracer, wl *workload, st *stream, probeStream bool, poolHopNs float64,
	extra map[string][]float64, counters map[string]float64) error {
	server := service.New(wl.Config)
	defer server.Close()
	bare := load.HandlerTarget{Handler: server}
	ts := httptest.NewServer(server)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	loopback := load.URLTarget{Base: ts.URL, Client: client}
	door, closeDoor := load.ShardedTarget(2, wl.Config)
	defer closeDoor()
	shadow := service.NewCache(1024, 16)

	n := max(1, wl.TraceRequests/b.sz.TraceScale)
	seen := make(map[service.Fingerprint]bool)
	buf := make([]byte, 0, st.maxBody)
	// handle records one in-process call as a span named by how it was served.
	handle := func(t load.Target, prefix string, root, i int, path string, body []byte) (time.Duration, string, error) {
		id := tr.begin(prefix, root, i)
		res := t.Do(path, body)
		d := tr.end(id)
		if res.Status != http.StatusOK {
			return 0, "", fmt.Errorf("replayed request %d: status %d", i, res.Status)
		}
		tr.spans[id].Name = prefix + "_" + res.Cache + "_ms"
		return d, res.Cache, nil
	}
	for i := 0; i < n; i++ {
		path, body, _ := st.body(uint64(i), buf)
		endpoint := st.plan(uint64(i)).Endpoint
		root := tr.begin("replay.request", -1, i)

		var (
			fp  service.Fingerprint
			run func() error
			err error
		)
		explained := tr.do("replay.decode+fingerprint", root, i, func() { fp, run, err = compute(endpoint, body) })
		if err != nil {
			return fmt.Errorf("replayed request %d: %w", i, err)
		}
		explained += tr.do("replay.cache_get", root, i, func() { shadow.Get(fp) })
		hitExplained := explained
		first := !seen[fp]
		if first {
			seen[fp] = true
			explained += tr.do("replay.compute", root, i, func() { err = run() })
			if err != nil {
				return fmt.Errorf("replayed request %d: %w", i, err)
			}
			explained += tr.do("replay.cache_put", root, i, func() { shadow.Put(fp, body) })
		}

		h1, cache1, err := handle(bare, "service.handler", root, i, path, body)
		if err != nil {
			return err
		}
		if first != (cache1 == "miss") {
			return fmt.Errorf("replayed request %d: first-seen %v but served as a %s", i, first, cache1)
		}
		if first {
			extra["service.unattributed_miss_ms"] = append(extra["service.unattributed_miss_ms"],
				float64(h1-explained)-poolHopNs)
		}
		h2, _, err := handle(bare, "service.handler", root, i, path, body)
		if err != nil {
			return err
		}
		extra["service.unattributed_hit_ms"] = append(extra["service.unattributed_hit_ms"], float64(h2-hitExplained))

		var res load.Result
		lb := tr.do("replay.loopback", root, i, func() { res = loopback.Do(path, body) })
		if res.Err != nil || res.Status != http.StatusOK {
			return fmt.Errorf("replayed request %d over loopback: status %d, err %v", i, res.Status, res.Err)
		}
		extra["service.transport_ms"] = append(extra["service.transport_ms"], float64(lb-h2))

		d1, cacheD, err := handle(door, "coord.door", root, i, path, body)
		if err != nil {
			return err
		}
		if cacheD == cache1 {
			extra["coord.door_overhead_ms"] = append(extra["coord.door_overhead_ms"], float64(d1-h1))
		}
		d2, _, err := handle(door, "coord.door", root, i, path, body)
		if err != nil {
			return err
		}
		extra["coord.door_overhead_ms"] = append(extra["coord.door_overhead_ms"], float64(d2-h2))
		tr.end(root)
	}

	if probeStream {
		// The workload has no servers of its own: the replay's are the only
		// ones whose counters can fill the table.
		st, _, err := readStats(bare, false)
		if err != nil {
			return err
		}
		_, perShard, err := readStats(door, true)
		if err != nil {
			return err
		}
		counters["service.hit_share"] = st.HitRate
		counters["service.singleflight_shared"] = float64(st.SingleflightShared)
		counters["service.rejected_429"] = float64(st.Rejected)
		counters["service.queue_high_water"] = float64(st.QueueHighWater)
		counters["service.cache_entries"] = float64(st.CacheEntries)
		counters["coord.shard_balance"] = shardBalance(make([]service.Stats, len(perShard)), perShard)
	}
	return nil
}

// probeSolvers times the layers under the handler on every corpus instance:
// graph freeze and bottom levels, each registered scheduler at eps 1 and 2,
// validation and metrics of the schedules, crash replay, batch evaluation and
// the tuner under the `faults` workload's spec.
func (b *bench) probeSolvers(tr *tracer, extra map[string][]float64) error {
	cs := b.sz.Corpus
	instances := max(2, cs.Size/b.sz.TraceScale)
	scenario, err := sim.ParseScenarioSpec("uniform:1")
	if err != nil {
		return err
	}
	gen, err := scenario.Generator()
	if err != nil {
		return err
	}
	for k := 0; k < instances; k++ {
		built := tr.begin("expt.build_instance_ms", -1, -1)
		in, err := expt.BuildInstance(cs.Family, cs.Granularity, cs.Procs, cs.TasksMin, cs.TasksMax, k, cs.Seed)
		tr.end(built)
		if err != nil {
			return err
		}
		p, cm := in.Platform, in.Costs
		// A server freezes a graph it has just decoded, never a memoized one.
		blob, err := json.Marshal(in.Graph)
		if err != nil {
			return err
		}
		fresh := func() (*dag.Graph, error) {
			g := new(dag.Graph)
			return g, json.Unmarshal(blob, g)
		}
		g, err := fresh()
		if err != nil {
			return err
		}
		var flat *dag.Flat
		tr.do("dag.freeze_us", -1, -1, func() { flat, err = g.Freeze() })
		if err != nil {
			return err
		}
		node, edge := sched.AvgCosts(flat, cm, p)
		out := make([]float64, flat.NumTasks())
		tr.do("dag.bottom_levels_us", -1, -1, func() { flat.BottomLevels(node, edge, out) })
		if g, err = fresh(); err != nil {
			return err
		}
		var bl []float64
		tr.do("sched.avg_bottom_levels_us", -1, -1, func() { bl, err = sched.AvgBottomLevels(g, cm, p) })
		if err != nil {
			return err
		}

		for _, name := range sched.Names() {
			info, _ := sched.LookupInfo(name)
			for _, eps := range []int{1, 2} {
				if !info.FaultTolerant {
					eps = 0
				}
				var (
					s      *sched.Schedule
					before runtime.MemStats
					after  runtime.MemStats
				)
				runtime.ReadMemStats(&before)
				tr.do("schedulers."+name+"_ms", -1, -1, func() {
					s, err = sched.Run(name, g, p, cm, sched.RunOptions{Epsilon: eps, BottomLevels: bl})
				})
				runtime.ReadMemStats(&after)
				if err != nil {
					return fmt.Errorf("%s eps %d on instance %d: %w", name, eps, k, err)
				}
				extra["schedulers."+name+"_allocs"] = append(extra["schedulers."+name+"_allocs"], float64(after.Mallocs-before.Mallocs))
				tr.do("sched.validate_us", -1, -1, func() { err = s.Validate() })
				if err != nil {
					return err
				}
				tr.do("sched.metrics_us", -1, -1, func() { _, err = s.ComputeMetrics() })
				if err != nil {
					return err
				}
				if eps == 0 {
					continue
				}
				crash, err := sim.CrashAtZero(p.NumProcs(), 0)
				if err != nil {
					return err
				}
				tr.do("sim.replay_us", -1, -1, func() { _, err = sim.RunWithOptions(s, crash, sim.Options{}) })
				if err != nil {
					return fmt.Errorf("replaying %s eps %d on instance %d: %w", name, eps, k, err)
				}
				if name == "ftsa" && eps == 1 {
					const trials = 500
					id := tr.begin("sim.evaluate_us_per_trial", -1, -1)
					_, err = sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: int64(k), Workers: 1})
					tr.end(id)
					tr.spans[id].Ops = trials
					if err != nil {
						return err
					}
				}
			}
		}
		if k < max(2, 8/b.sz.TraceScale) {
			faults := workloadByName("faults").Profile()
			tr.do("tune.run_ms", -1, -1, func() {
				_, err = tune.Run(tune.Spec{Graph: g, Platform: p, Costs: cm, Epsilons: faults.TuneEpsilons,
					Scenario: scenario, Trials: faults.TuneTrials, Target: faults.TuneTarget,
					Seed: int64(k), Workers: 1, BottomLevels: bl})
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCampaign times the experiment layer: single cells spread over the
// paper grid, then a small campaign through the engine. The engine's overhead
// share is the part of its workers' wall time the process did not spend on a
// CPU (hand-offs, the serialized collector, an idle worker at the tail).
func (b *bench) probeCampaign(tr *tracer, counters map[string]float64) error {
	c := b.campaignSpec()
	cells := c.Cells()
	n := max(9, 256/b.sz.TraceScale)
	for i := 0; i < n; i++ {
		cell := cells[i*len(cells)/n]
		name := "expt.run_cell_ms." + strings.ReplaceAll(strings.ToLower(string(cell.Scheduler)), "-", "")
		var err error
		tr.do(name, -1, i, func() { _, err = c.RunCell(cell) })
		if err != nil {
			return err
		}
	}
	c.Instances = 2
	cpu, start := cpuTime(), time.Now()
	res, err := expt.RunCampaign(c, expt.EngineOptions{})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	busy := cpuTime() - cpu
	counters["expt.engine_overhead_share"] = 1 - float64(busy)/(float64(runtime.GOMAXPROCS(0))*float64(wall))
	var csv bytes.Buffer
	tr.do("expt.csv_write_ms", -1, -1, func() { err = expt.WriteCampaignCSV(&csv, res) })
	return err
}
