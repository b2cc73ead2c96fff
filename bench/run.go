package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ftsched/internal/expt"
	"ftsched/internal/load"
	"ftsched/internal/service"
)

// zipfS is the popularity skew of every request stream.
const zipfS = 1.0

// lagLimit invalidates an open-loop repeat: when the generator itself sent
// the 95th-percentile request this late, the box stalled and the repeat
// measured the stall.
const lagLimit = 5 * time.Millisecond

// bench is one benchmark invocation's configuration.
type bench struct {
	seed    int64
	seconds float64 // measured seconds per workload, split over the repeats
	repeats int
	clients int
	sz      sizes
	smoke   bool
	trace   bool
	outDir  string
	log     io.Writer
}

func (b *bench) window() time.Duration {
	return time.Duration(b.seconds / float64(b.repeats) * float64(time.Second))
}

// repeat is one measured window on a fresh server (or one campaign run) with
// the set-up that preceded it.
type repeat struct {
	e2e   map[string]float64
	layer map[string]float64 // the per-layer metrics a window yields: counters and runtime deltas
	lat   []int64            // sorted latencies of answered requests, ns
	facts repeatFacts
}

// repeatFacts is the per-repeat raw record that ships in the report next to
// the medians.
type repeatFacts struct {
	SetupS    float64 `json:"setup_s"`
	WindowS   float64 `json:"window_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Ops       int     `json:"ops"`
	// GeneratorLagP95Ms and GeneratorLagMaxMs say how late the open loop sent
	// (0 on closed loops, whose next request is due when it is sent); an
	// invalid repeat is reported but kept out of the medians.
	GeneratorLagP95Ms float64 `json:"generator_lag_p95_ms"`
	GeneratorLagMaxMs float64 `json:"generator_lag_max_ms"`
	Valid             bool    `json:"valid"`
}

// meter brackets a measured window: CPU, allocation and GC deltas.
type meter struct {
	cpu time.Duration
	mem runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	return m
}

// stop fills the window-derived metrics for ops operations.
func (m *meter) stop(ops int, e2e, layer map[string]float64) {
	cpu := cpuTime() - m.cpu
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(max(ops, 1))
	e2e["cpu_ms_per_op"] = ms(cpu) / n
	layer["runtime.alloc_kb_per_op"] = float64(now.TotalAlloc-m.mem.TotalAlloc) / 1024 / n
	layer["runtime.mallocs_per_op"] = float64(now.Mallocs-m.mem.Mallocs) / n
	layer["runtime.gc_cycles"] = float64(now.NumGC - m.mem.NumGC)
	layer["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-m.mem.PauseTotalNs) / 1e6
}

// liveHeap is the heap still reachable after a forced collection; two cycles
// so that sync.Pool victims are gone as well.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted values (nearest rank); 0 for none.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencyMetrics fills the latency-derived metrics from the sorted latencies
// of the answered requests; attempted includes the failed ones, which miss
// any limit.
func latencyMetrics(lat []int64, attempted int, limit time.Duration, e2e, layer map[string]float64) {
	within := sort.Search(len(lat), func(i int) bool { return lat[i] > int64(limit) })
	e2e["latency_p50_ms"] = float64(quantile(lat, 0.50)) / 1e6
	e2e["latency_p95_ms"] = float64(quantile(lat, 0.95)) / 1e6
	e2e["slo_share"] = float64(within) / float64(max(attempted, 1))
	layer["load.open_p95_ms"] = e2e["latency_p95_ms"]
	layer["load.open_p99_ms"] = float64(quantile(lat, 0.99)) / 1e6
}

// served is what a serving repeat leaves behind for the checks and the
// traced pass.
type served struct {
	corpus *load.Corpus
	st     *stream
}

// warmup returns the unmeasured phase that precedes a window. A workload with
// no configured count warms every distinct body of its stream once, so the
// window sees hits only.
func (b *bench) warmup(wl *workload, st *stream) phase {
	ph := phase{senders: b.clients}
	if n, ok := b.sz.Warmup[wl.Name]; ok {
		ph.count = uint64(n)
	} else {
		ph.indices = st.distinct(len(st.plans))
	}
	return ph
}

// streamLen sizes a workload's synthesized stream: a closed loop cycles
// through StreamLen requests; an open loop must never wrap, because its hit
// share comes from the seed pools, not from replaying the stream.
func (b *bench) streamLen(wl *workload) int {
	if wl.Loop == openLoop {
		return b.sz.Warmup[wl.Name] + int(math.Ceil(wl.Rate*b.window().Seconds())) + 1
	}
	return b.sz.StreamLen
}

// serveRepeat sets a serving workload up from nothing (corpus, request
// bodies, fresh server, warm-up), measures one window and checks it.
func (b *bench) serveRepeat(wl *workload, chk *checker) (*repeat, *served, error) {
	setupStart := time.Now()
	corpus, err := load.BuildCorpus(b.sz.Corpus)
	if err != nil {
		return nil, nil, err
	}
	sy, err := load.NewSynthesizer(corpus, wl.Profile(), zipfS, b.seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := buildStream(sy, corpus.Spec(), b.streamLen(wl), wl.Unique, b.clients)
	if err != nil {
		return nil, nil, err
	}
	senders := b.clients
	if wl.Loop == openLoop {
		senders = openSenders
	}
	d := deploy(wl, senders)
	defer d.close()
	warm := b.warmup(wl, st)
	logs, _ := send(d, st, warm)
	chk.absorb(logs)
	setup := time.Since(setupStart)

	before, shardsBefore, err := d.stats()
	if err != nil {
		return nil, nil, err
	}
	ph := phase{window: b.window(), senders: senders, rate: wl.Rate}
	if warm.indices == nil {
		ph.first = warm.count // a unique or open stream continues where the warm-up stopped
	}
	m := startMeter()
	logs, elapsed := send(d, st, ph)
	rep := &repeat{e2e: map[string]float64{}, layer: map[string]float64{}}
	attempted := 0
	for _, l := range logs {
		attempted += len(l.samples)
	}
	m.stop(attempted, rep.e2e, rep.layer)
	after, shardsAfter, err := d.stats()
	if err != nil {
		return nil, nil, err
	}
	// What the deployment retains: the live heap with it, minus the live heap
	// once it is closed and dropped. The senders' logs are alive at both
	// readings, so what the benchmark itself keeps cancels out.
	withServer := liveHeap()
	d.close()
	rep.e2e["live_heap_mb"] = (withServer - liveHeap()) / (1 << 20)
	rep.e2e["setup_s"] = setup.Seconds()

	var lag []int64
	hits := 0
	for _, l := range logs {
		for _, s := range l.samples {
			lag = append(lag, s.lagNs)
			if s.ok {
				rep.lat = append(rep.lat, s.latNs)
			}
			if s.hit {
				hits++
			}
		}
	}
	sort.Slice(rep.lat, func(i, j int) bool { return rep.lat[i] < rep.lat[j] })
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	rep.e2e["throughput_ops_s"] = float64(len(rep.lat)) / elapsed.Seconds()
	latencyMetrics(rep.lat, attempted, wl.Limit, rep.e2e, rep.layer)
	rep.facts = repeatFacts{
		SetupS: setup.Seconds(), WindowS: elapsed.Seconds(),
		Attempted: attempted, Failed: attempted - len(rep.lat), Ops: len(rep.lat),
		GeneratorLagP95Ms: float64(quantile(lag, 0.95)) / 1e6,
		GeneratorLagMaxMs: float64(quantile(lag, 1)) / 1e6,
	}
	rep.facts.Valid = wl.Loop != openLoop || quantile(lag, 0.95) <= int64(lagLimit)
	rep.layer["load.generator_lag_p95_ms"] = rep.facts.GeneratorLagP95Ms
	rep.layer["load.generator_lag_max_ms"] = rep.facts.GeneratorLagMaxMs

	// The server's own counters over the window.
	dHits := float64(after.CacheHits - before.CacheHits)
	dMisses := float64(after.CacheMisses - before.CacheMisses)
	rep.layer["service.hit_share"] = dHits / math.Max(dHits+dMisses, 1)
	rep.layer["service.singleflight_shared"] = float64(after.SingleflightShared - before.SingleflightShared)
	rep.layer["service.rejected_429"] = float64(after.Rejected - before.Rejected)
	rep.layer["service.queue_high_water"] = float64(after.QueueHighWater)
	rep.layer["service.cache_entries"] = float64(after.CacheEntries)
	rep.layer["coord.shard_balance"] = shardBalance(shardsBefore, shardsAfter)

	chk.absorb(logs)
	chk.conservation(after)
	if got := after.Requests - before.Requests; got != uint64(attempted) {
		chk.problem("server counted %d requests over a window in which %d were sent", got, attempted)
	}
	if got := after.CacheHits - before.CacheHits; got != uint64(hits) {
		chk.problem("server counted %d hits over a window in which clients saw %d", got, hits)
	}
	return rep, &served{corpus: corpus, st: st}, nil
}

// shardBalance is the busiest shard's share of the window's requests over
// the mean share: 1 is even (and what a bare server reads).
func shardBalance(before, after []service.Stats) float64 {
	total, most := 0.0, 0.0
	for i := range after {
		n := float64(after[i].Requests - before[i].Requests)
		total += n
		most = math.Max(most, n)
	}
	if total == 0 {
		return 1
	}
	return most / (total / float64(len(after)))
}

// campaignSpec is the paper's Figure 1-3 campaign under the run's seed, with
// instances per grid point sized to the window.
func (b *bench) campaignSpec() expt.Campaign {
	c := expt.PaperCampaign()
	c.Seed = b.seed
	// The paper's platform and task range, except under -smoke.
	c.Procs, c.TasksMin, c.TasksMax = b.sz.Corpus.Procs, b.sz.Corpus.TasksMin, b.sz.Corpus.TasksMax
	perInstance := len(c.Schedulers) * len(c.Epsilons) * len(c.Granularities) * len(c.Families)
	c.Instances = max(1, int(math.Round(b.sz.CellsPerSecond*b.window().Seconds()/float64(perInstance))))
	return c
}

// campaignRepeat runs the campaign once. Every cell is submitted when the
// run starts, so a cell's latency is its completion time since the start —
// the same from-intended-send clock the open loop uses — and the limit is
// twice the nominal window.
func (b *bench) campaignRepeat(chk *checker) (*repeat, error) {
	setupStart := time.Now()
	c := b.campaignSpec()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	heapBefore := liveHeap()
	// Warm-up: one instance per grid point, so that the measured run starts
	// with a grown heap and faulted-in code, like the serving warm-ups.
	small := c
	small.Instances = 1
	res, err := expt.RunCampaign(small, expt.EngineOptions{})
	if err != nil {
		return nil, err
	}
	if err := expt.WriteCampaignCSV(io.Discard, res); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	rep := &repeat{e2e: map[string]float64{}, layer: map[string]float64{}}
	rep.lat = make([]int64, 0, c.NumCells())
	m := startMeter()
	start := time.Now()
	res, err = expt.RunCampaign(c, expt.EngineOptions{
		Progress: func(done, total int) { rep.lat = append(rep.lat, time.Since(start).Nanoseconds()) },
	})
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := expt.WriteCampaignCSV(&csv, res); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	cells := c.NumCells()
	m.stop(cells, rep.e2e, rep.layer)
	rep.e2e["live_heap_mb"] = (liveHeap() - heapBefore) / (1 << 20)
	runtime.KeepAlive(res)
	rep.e2e["setup_s"] = setup.Seconds()
	rep.e2e["throughput_ops_s"] = float64(len(res.Cells)) / elapsed.Seconds()
	latencyMetrics(rep.lat, cells, 2*b.window(), rep.e2e, rep.layer)
	rep.facts = repeatFacts{SetupS: setup.Seconds(), WindowS: elapsed.Seconds(),
		Attempted: cells, Failed: cells - len(res.Cells), Ops: len(res.Cells), Valid: true}
	// Every cell is due at the start, so nothing is ever sent late.
	rep.layer["load.generator_lag_p95_ms"], rep.layer["load.generator_lag_max_ms"] = 0, 0
	chk.campaign(c, res, csv.Bytes())
	return rep, nil
}

// runWorkload measures one workload: repeats, medians, output checks and,
// when asked, the traced pass.
func (b *bench) runWorkload(wl *workload) (*workloadReport, error) {
	chk := newChecker()
	var (
		reps []*repeat
		last *served
	)
	for r := 0; r < b.repeats; r++ {
		var (
			rep *repeat
			err error
		)
		if wl.Loop == offline {
			rep, err = b.campaignRepeat(chk)
		} else {
			rep, last, err = b.serveRepeat(wl, chk)
		}
		if err != nil {
			return nil, fmt.Errorf("%s repeat %d: %w", wl.Name, r+1, err)
		}
		reps = append(reps, rep)
		fmt.Fprintf(b.log, "  %s repeat %d/%d: %d ops in %.2fs (set-up %.2fs)\n",
			wl.Name, r+1, b.repeats, rep.facts.Ops, rep.facts.WindowS, rep.facts.SetupS)
	}
	rp := &workloadReport{Name: wl.Name, Why: wl.Why, Loop: wl.Loop,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
	// The medians are over the valid repeats, or over all when none is.
	var valid []*repeat
	for _, r := range reps {
		rp.Repeats = append(rp.Repeats, r.facts)
		rp.Attempted += r.facts.Attempted
		rp.Failed += r.facts.Failed
		if r.facts.Valid {
			valid = append(valid, r)
		}
	}
	if len(valid) == 0 {
		valid = reps
	}
	requests := 0
	for _, r := range valid {
		requests += r.facts.Attempted
	}
	rp.FailShare = float64(rp.Failed) / float64(max(rp.Attempted, 1))
	if rp.Failed > 0 {
		chk.problem("%d of %d operations failed", rp.Failed, rp.Attempted)
	}
	for _, d := range endToEnd {
		rp.EndToEnd[d.Name] = summarize(d, valid, requests, func(r *repeat) map[string]float64 { return r.e2e })
	}
	if last != nil {
		chk.stream(wl, last.st, b.sz)
	}
	if b.trace {
		layer, spans, err := b.tracedPass(wl, last)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", wl.Name, err)
		}
		for _, d := range perLayer {
			if v, ok := layer[d.Name]; ok {
				rp.PerLayer[d.Name] = v
			} else if _, ok := valid[0].layer[d.Name]; ok {
				rp.PerLayer[d.Name] = summarize(d, valid, requests, func(r *repeat) map[string]float64 { return r.layer })
			}
		}
		if err := writeSpans(b.outDir, wl.Name, spans); err != nil {
			return nil, err
		}
	}
	rp.Problems = chk.problems
	rp.Correct = len(chk.problems) == 0
	rp.OutputsDigest = chk.digest()
	return rp, nil
}

// summarize reduces one metric over the repeats to its median, keeping the
// per-repeat raw values. samples is the request count behind a per-request
// metric; per-repeat metrics count repeats.
func summarize(d metricDecl, reps []*repeat, requests int, of func(*repeat) map[string]float64) value {
	v := value{Unit: d.Unit, Samples: requests}
	for _, r := range reps {
		v.Repeats = append(v.Repeats, of(r)[d.Name])
	}
	switch d.Name {
	case "live_heap_mb", "setup_s", "runtime.gc_cycles", "runtime.gc_pause_ms":
		v.Samples = len(reps)
	}
	v.Value = median(v.Repeats)
	return v
}
