package main

import (
	"time"

	"ftsched/internal/load"
	"ftsched/internal/service"
)

// metricDecl declares one metric the benchmark prints. The declarations
// here and the lists in ../BENCHMARK.json name the same sets; bench_test.go
// fails when they drift.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (see README.md for what latency means on `campaign`).
var endToEnd = []metricDecl{
	{"throughput_ops_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"slo_share", "share", "higher", 0.02},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced pass's metrics, one layer each, in the order the
// table prints them.
var perLayer = []metricDecl{
	{Name: "service.decode_schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "service.decode_evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "service.decode_tune_ms", Unit: "ms", Better: "lower"},
	{Name: "service.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "service.pool_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.handler_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "service.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "service.unattributed_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.unattributed_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_share", Unit: "share", Better: "higher"},
	{Name: "service.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "service.rejected_429", Unit: "count", Better: "lower"},
	{Name: "service.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "service.cache_entries", Unit: "count", Better: "lower"},
	{Name: "coord.route_ns", Unit: "ns", Better: "lower"},
	{Name: "coord.door_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.door_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.door_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.shard_balance", Unit: "ratio", Better: "lower"},
	{Name: "dag.freeze_us", Unit: "us", Better: "lower"},
	{Name: "dag.bottom_levels_us", Unit: "us", Better: "lower"},
	{Name: "sched.avg_bottom_levels_us", Unit: "us", Better: "lower"},
	{Name: "sched.validate_us", Unit: "us", Better: "lower"},
	{Name: "sched.metrics_us", Unit: "us", Better: "lower"},
	{Name: "schedulers.ftsa_ms", Unit: "ms", Better: "lower"},
	{Name: "schedulers.ftsa_allocs", Unit: "count", Better: "lower"},
	{Name: "schedulers.mcftsa_ms", Unit: "ms", Better: "lower"},
	{Name: "schedulers.mcftsa_allocs", Unit: "count", Better: "lower"},
	{Name: "schedulers.ftsa-ins_ms", Unit: "ms", Better: "lower"},
	{Name: "schedulers.ftsa-ins_allocs", Unit: "count", Better: "lower"},
	{Name: "schedulers.ftbar_ms", Unit: "ms", Better: "lower"},
	{Name: "schedulers.ftbar_allocs", Unit: "count", Better: "lower"},
	{Name: "schedulers.heft_ms", Unit: "ms", Better: "lower"},
	{Name: "schedulers.heft_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.replay_us", Unit: "us", Better: "lower"},
	{Name: "sim.evaluate_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "tune.run_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.build_instance_ms", Unit: "ms", Better: "lower"},
	{Name: "expt.run_cell_ms.ftsa", Unit: "ms", Better: "lower"},
	{Name: "expt.run_cell_ms.mcftsa", Unit: "ms", Better: "lower"},
	{Name: "expt.run_cell_ms.ftbar", Unit: "ms", Better: "lower"},
	{Name: "expt.engine_overhead_share", Unit: "share", Better: "lower"},
	{Name: "expt.csv_write_ms", Unit: "ms", Better: "lower"},
	{Name: "load.corpus_build_ms", Unit: "ms", Better: "lower"},
	{Name: "load.synth_us", Unit: "us", Better: "lower"},
	{Name: "load.generator_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.generator_lag_max_ms", Unit: "ms", Better: "lower"},
	{Name: "load.open_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// uniqueSeed is the placeholder the never-repeating workloads put in the one
// request field that makes every body distinct; the digits after the leading
// 1 are overwritten per request with the stream index (see stream.body).
const uniqueSeed int64 = 1_000_000_000_000_000

// Loop kinds.
const (
	closedLoop = "closed"
	openLoop   = "open"
	offline    = "campaign"
)

// workload is one set of inputs the benchmark runs. Everything that shapes
// the request stream is here; the seed is the only input from outside.
type workload struct {
	Name string
	Why  string
	Loop string
	// Limit is the latency limit slo_share counts against.
	Limit time.Duration
	// Profile is the traffic shape handed to load.NewSynthesizer.
	Profile func() load.Profile
	// Unique names the request field that carries uniqueSeed and is
	// overwritten per request ("seed", "eval_seed"), or is empty when the
	// stream repeats keys.
	Unique string
	// Config is the service configuration of every server the workload
	// starts; Shards >= 2 puts a coordinator in front.
	Config service.Config
	Shards int
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// TraceRequests is how many requests of the stream the traced pass
	// replays.
	TraceRequests int
}

func profile(name string, edit func(*load.Profile)) func() load.Profile {
	return func() load.Profile {
		p, err := load.ProfileByName(name)
		if err != nil {
			panic(err) // the preset names are constants of this file
		}
		if edit != nil {
			edit(&p)
		}
		return p
	}
}

func seedPool(n int) []int64 {
	pool := make([]int64, n)
	for i := range pool {
		pool[i] = int64(i + 1)
	}
	return pool
}

// workloads is the fixed list, in run order. README.md records why each was
// chosen and which layers it is expected to be sensitive to.
var workloads = []workload{
	{
		Name:          "serve-hot",
		Why:           "closed loop on /schedule with every key warmed: decode, fingerprint, cache lookup and body I/O do all the work, the schedulers none",
		Loop:          closedLoop,
		Limit:         10 * time.Millisecond,
		Profile:       profile("schedule", nil),
		TraceRequests: 256,
	},
	{
		Name:  "serve-cold",
		Why:   "closed loop on /schedule with a never-repeating seed and a 1024-entry cache: pool hop, solve, validate, response build and cache eviction dominate; 0% hits",
		Loop:  closedLoop,
		Limit: 25 * time.Millisecond,
		Profile: profile("schedule", func(p *load.Profile) {
			// heft ignores the tie-break seed, so its requests would repeat.
			p.Schedulers = []string{"ftsa", "mcftsa", "ftsa-ins", "ftbar"}
			p.Seeds = []int64{uniqueSeed}
		}),
		Unique:        "seed",
		Config:        service.Config{CacheEntries: 1024},
		TraceRequests: 256,
	},
	{
		Name:  "door-open",
		Why:   "open loop at a fixed 200 req/s through a coordinator and 2 shards, schedule 0.85 / evaluate 0.15, about 0.6 hits: queueing, singleflight and the door's second decode show as latency and CPU",
		Loop:  openLoop,
		Limit: 25 * time.Millisecond,
		Profile: profile("mixed", func(p *load.Profile) {
			p.Weights = load.EndpointWeights{Schedule: 0.85, Evaluate: 0.15}
			p.Seeds = seedPool(6)
			p.EvalSeeds = seedPool(6)
		}),
		Shards:        2,
		Rate:          200,
		TraceRequests: 256,
	},
	{
		Name:  "faults",
		Why:   "closed loop, evaluate 0.85 / tune 0.15 with 500 trials and a never-repeating eval_seed: replay and tuning do over 90% of the work, decoding under 10%",
		Loop:  closedLoop,
		Limit: 150 * time.Millisecond,
		Profile: profile("mixed", func(p *load.Profile) {
			p.Weights = load.EndpointWeights{Evaluate: 0.85, Tune: 0.15}
			p.EvalTrials = []int{500}
			p.EvalSeeds = []int64{uniqueSeed}
		}),
		Unique:        "eval_seed",
		TraceRequests: 64,
	},
	{
		Name:          "campaign",
		Why:           "offline: the paper's Figure 1-3 grid through expt.RunCampaign and WriteCampaignCSV, one op per cell; no HTTP and no JSON decode",
		Loop:          offline,
		TraceRequests: 64,
	},
}

// probeProfile is the stream the traced pass replays for a workload that has
// no request stream of its own (campaign), and the source of the per-kind
// decode probes: all three endpoints in equal parts.
var probeProfile = profile("mixed", func(p *load.Profile) {
	p.Weights = load.EndpointWeights{Schedule: 1, Evaluate: 1, Tune: 1}
})

// sizes are the knobs that differ between the full benchmark and the -smoke
// configuration of bench_test.go; nothing else does.
type sizes struct {
	Corpus load.CorpusSpec
	// StreamLen is the number of synthesized requests a closed-loop stream
	// cycles through.
	StreamLen int
	// Warmup is the number of unmeasured requests sent before a window, by
	// workload; a workload without an entry (serve-hot) warms every distinct
	// body of its stream once. serve-cold's fills its cache, so that the
	// whole window evicts.
	Warmup map[string]int
	// CellsPerSecond sizes the campaign: instances per grid point are chosen
	// so one repeat runs about one window on the 2-core reference box. It is
	// a constant, not a measurement, so parent and change run the same grid.
	CellsPerSecond float64
	// TraceScale divides every TraceRequests and probe count.
	TraceScale int
	// CheckSolves is how many requests per workload are re-solved off the
	// clock; DigestRequests how many leading stream indices the outputs
	// digest covers.
	CheckSolves, DigestRequests int
}

func fullSizes(seed int64) sizes {
	return sizes{
		// The paper's section 6 shape.
		Corpus:         load.CorpusSpec{Size: 32, Family: "random", Procs: 20, TasksMin: 100, TasksMax: 150, Granularity: 1, Seed: seed},
		StreamLen:      2048,
		Warmup:         map[string]int{"serve-cold": 1100, "door-open": 1000, "faults": 24},
		CellsPerSecond: 900,
		TraceScale:     1,
		CheckSolves:    32,
		DigestRequests: 64,
	}
}

func smokeSizes(seed int64) sizes {
	return sizes{
		Corpus:         load.CorpusSpec{Size: 4, Family: "random", Procs: 20, TasksMin: 20, TasksMax: 30, Granularity: 1, Seed: seed},
		StreamLen:      64,
		Warmup:         map[string]int{"serve-cold": 32, "door-open": 64, "faults": 4},
		CellsPerSecond: 200, // 0.3 s windows: 60 cells
		TraceScale:     8,
		CheckSolves:    8,
		DigestRequests: 8,
	}
}
