package sim

import (
	"fmt"
	"math"
	"math/rand"

	"ftsched/internal/lazyrand"
	"ftsched/internal/par"
	"ftsched/internal/sched"
	"ftsched/internal/stats"
)

// EvalOptions tunes a batch evaluation. The zero value runs with GOMAXPROCS
// workers, base seed 0 and degraded-mode rerouting, under the paper's
// contention-free communication model.
type EvalOptions struct {
	// Seed is the base seed; every trial derives its own rng stream from
	// (Seed, trial index), so the result is a pure function of
	// (schedule, generator, trials, Seed) — independent of Workers.
	Seed int64
	// Workers is the replay worker count; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnTrial, when non-nil, observes every trial's outcome in strict trial
	// order (latency is meaningful only when ok is true). Because trial
	// seeds derive from (Seed, trial), two evaluations at one seed see the
	// identical failure scenario at each index; the auto-tuner uses this
	// hook to compare candidates trial-for-trial on their shared draws.
	// When a trial fails, no trial of its chunk of 1024 per worker is
	// observed, including the ones before it.
	OnTrial func(trial int, ok bool, latency float64)
}

// quantileWindow is the number of most recent successful-trial latencies
// backing the p50/p99 report. It is the only per-trial state kept, which is
// what makes an evaluation's memory O(1) in trials.
const quantileWindow = 4096

// evalChunk is the number of trials per worker EvaluateScenarios runs
// between two in-order aggregation passes.
const evalChunk = 1024

// EvalLatency summarizes the latency of successful trials. Mean/StdDev/
// Min/Max stream over every success; P50/P99 are nearest-rank quantiles over
// the most recent Window successes.
type EvalLatency struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	// Window is the number of samples backing the quantiles.
	Window int `json:"window"`
}

// FailureBucket is one row of the degradation-vs-failure-count histogram:
// all trials whose scenario crashed exactly Failures processors within the
// schedule's guaranteed mission window [0, M) — crashes landing after the
// upper bound cannot affect the execution, and under a lifetime law every
// crash time is finite, so counting them would collapse the histogram.
type FailureBucket struct {
	Failures  int `json:"failures"`
	Trials    int `json:"trials"`
	Successes int `json:"successes"`
	// SuccessRate is Successes/Trials within the bucket.
	SuccessRate float64 `json:"success_rate"`
	// MeanLatency averages successful-trial latency within the bucket.
	MeanLatency float64 `json:"mean_latency"`
	// MeanDegradation averages (latency − M*)/M* over successful trials,
	// with M* the schedule's no-failure lower bound — how much the crash
	// pattern stretched the execution.
	MeanDegradation float64 `json:"mean_degradation"`
}

// EvalResult aggregates a batch fault-injection evaluation. It is built by
// consuming trials in index order, so equal (schedule, generator, trials,
// seed) inputs produce byte-identical JSON at any worker count.
type EvalResult struct {
	// Trials is the number of scenarios sampled; Successes counts trials
	// where every exit task delivered a result.
	Trials    int `json:"trials"`
	Successes int `json:"successes"`
	// SuccessRate is Successes/Trials; SuccessLow/SuccessHigh bound the
	// true success probability by the 95% Wilson score interval.
	SuccessRate float64 `json:"success_rate"`
	SuccessLow  float64 `json:"success_low"`
	SuccessHigh float64 `json:"success_high"`
	// Latency summarizes successful trials; zero-valued when none succeed.
	Latency EvalLatency `json:"latency"`
	// ByFailures is the degradation histogram, ascending in failure count;
	// empty buckets are omitted.
	ByFailures []FailureBucket `json:"by_failures"`
	// Generator is the canonical spec string of the scenario generator.
	Generator string `json:"generator"`
	// Seed echoes the base seed.
	Seed int64 `json:"seed"`
}

// LatencyMeanInterval returns the z-score confidence interval of the mean
// latency over the evaluation's successful trials, computed from the
// streamed mean and standard deviation (half-width z·σ/√n). ok is false when
// no trial succeeded — there is no latency to bound. It is the interval the
// auto-tuner's conservative pruning compares: a candidate is only discarded
// when another candidate's whole interval beats its whole interval.
func (r *EvalResult) LatencyMeanInterval(z float64) (lo, hi float64, ok bool) {
	if r.Successes == 0 {
		return 0, 0, false
	}
	half := z * r.Latency.StdDev / math.Sqrt(float64(r.Successes))
	return r.Latency.Mean - half, r.Latency.Mean + half, true
}

// TrialSeed derives the rng seed of one Evaluate trial from the base seed by
// FNV-1a over the little-endian encodings — the same stable-hash discipline
// the campaign engine uses for per-cell seeds, inlined so the trial loop
// allocates nothing. It is exported as the contract that lets callers replay
// any single trial of an evaluation through Run.
func TrialSeed(base int64, trial int) int64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for v, i := uint64(base), 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= prime
	}
	for v, i := uint64(trial), 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= prime
	}
	return int64(h &^ (1 << 63))
}

// evalOutcome is one trial's contribution to the aggregate.
type evalOutcome struct {
	ok      bool
	latency float64
	failed  int
}

// TrialFunc executes one trial against a drawn scenario, reporting whether
// the mission succeeded and, when it did, its latency. The scenario is
// worker-owned scratch refilled per trial; implementations must not retain
// it past the call.
type TrialFunc func(trial int, sc Scenario) (ok bool, latency float64, err error)

// Evaluate replays the schedule under `trials` failure scenarios drawn from
// gen and streams the outcomes into an EvalResult, through EvaluateScenarios:
// each worker owns one pooled replayer (scratch reused across its trials),
// and the result is the same at every worker count.
//
// A trial whose scenario exceeds what the schedule tolerates
// (ErrNotTolerated) counts as a failure; any other error aborts the
// evaluation deterministically (first error in trial order wins).
func Evaluate(s *sched.Schedule, gen ScenarioGenerator, trials int, opt EvalOptions) (*EvalResult, error) {
	newRunner := func() (TrialFunc, func(), error) {
		rp, err := newReplayer(s, Options{})
		if err != nil {
			return nil, nil, err
		}
		run := func(trial int, sc Scenario) (bool, float64, error) {
			lat, _, badExit, err := rp.replay(sc, nil)
			if err != nil {
				return false, 0, err
			}
			// A not-tolerated trial (badExit >= 0) is a failure sample, not
			// an evaluation error.
			return badExit < 0, lat, nil
		}
		return run, rp.release, nil
	}
	return EvaluateScenarios(s.Platform.NumProcs(), s.UpperBound(), s.LowerBound(),
		gen, trials, opt, newRunner)
}

// evalWorker is one worker's state: its runner, its rng (reseeded per trial
// from (opt.Seed, trial)) and its scenario scratch.
type evalWorker struct {
	run     TrialFunc
	rng     *rand.Rand
	sc      Scenario
	scratch ScenarioScratch
}

// EvaluateScenarios is the generator → trial → ordered-aggregation engine
// behind Evaluate, generalized over what one trial executes: Evaluate plugs
// in a static-schedule replay, the mission controller plugs in a full online
// re-scheduling run, and both inherit the same determinism contract (the
// result is a pure function of the inputs and opt.Seed, independent of
// opt.Workers). newRunner is called once per worker, before any trial runs,
// and returns the worker's TrialFunc plus a close function releasing its
// scratch (may be nil).
//
// Trials run in chunks of evalChunk per worker through par.For; each chunk is
// aggregated in trial order before the next starts, so memory is
// O(evalChunk·workers + m + quantileWindow) whatever the trial count.
//
// m is the platform size the scenarios cover; missionWindow is the failure-
// counting window of the degradation histogram (crashes at or past it cannot
// affect the execution); baseline is the no-failure latency degradation is
// measured against.
func EvaluateScenarios(m int, missionWindow, baseline float64, gen ScenarioGenerator, trials int,
	opt EvalOptions, newRunner func() (TrialFunc, func(), error)) (*EvalResult, error) {
	if gen == nil {
		return nil, fmt.Errorf("sim: Evaluate needs a scenario generator")
	}
	if trials < 1 {
		return nil, fmt.Errorf("sim: need at least one trial, got %d", trials)
	}
	if err := gen.Check(m); err != nil {
		return nil, err
	}
	workers := make([]evalWorker, par.Workers(opt.Workers, trials))
	for w := range workers {
		run, closeRunner, err := newRunner()
		if err != nil {
			return nil, err
		}
		if closeRunner != nil {
			defer closeRunner()
		}
		workers[w] = evalWorker{run: run, rng: lazyrand.New(0), sc: NewScenario(m)}
	}

	var (
		succ    int
		latAcc  stats.Accumulator
		window  = stats.NewWindow(min(quantileWindow, trials))
		buckets = make([]failureAcc, m+1)
		chunk   = make([]evalOutcome, min(trials, evalChunk*len(workers)))
		base    int
	)
	// Hoisted out of the chunk loop, so a one-worker evaluation allocates
	// nothing per chunk.
	trial := func(w, k int) error {
		wk, o, i := &workers[w], &chunk[k], base+k
		wk.rng.Seed(TrialSeed(opt.Seed, i))
		err := gen.FillScenario(wk.rng, &wk.sc, &wk.scratch)
		if err == nil {
			o.failed = wk.sc.NumFailedBefore(missionWindow)
			o.ok, o.latency, err = wk.run(i, wk.sc)
		}
		if err != nil {
			return fmt.Errorf("sim: trial %d: %w", i, err)
		}
		return nil
	}
	for ; base < trials; base += len(chunk) {
		n := min(len(chunk), trials-base)
		if err := par.For(len(workers), n, trial); err != nil {
			return nil, err
		}
		for k, o := range chunk[:n] {
			if opt.OnTrial != nil {
				opt.OnTrial(base+k, o.ok, o.latency)
			}
			b := &buckets[o.failed]
			b.trials++
			if o.ok {
				succ++
				latAcc.Add(o.latency)
				window.Add(o.latency)
				b.successes++
				b.latency.Add(o.latency)
				if baseline > 0 {
					b.degradation.Add((o.latency - baseline) / baseline)
				}
			}
		}
	}

	res := &EvalResult{
		Trials:      trials,
		Successes:   succ,
		SuccessRate: float64(succ) / float64(trials),
		Generator:   gen.Spec().String(),
		Seed:        opt.Seed,
	}
	res.SuccessLow, res.SuccessHigh = stats.Wilson(succ, trials, 1.96)
	if succ > 0 {
		res.Latency = EvalLatency{
			Mean:   latAcc.Mean(),
			StdDev: latAcc.StdDev(),
			Min:    latAcc.Min(),
			Max:    latAcc.Max(),
			P50:    window.Quantile(0.5),
			P99:    window.Quantile(0.99),
			Window: window.Len(),
		}
	}
	for f := range buckets {
		b := &buckets[f]
		if b.trials == 0 {
			continue
		}
		res.ByFailures = append(res.ByFailures, FailureBucket{
			Failures:        f,
			Trials:          b.trials,
			Successes:       b.successes,
			SuccessRate:     float64(b.successes) / float64(b.trials),
			MeanLatency:     b.latency.Mean(),
			MeanDegradation: b.degradation.Mean(),
		})
	}
	return res, nil
}

// failureAcc accumulates one failure-count bucket of the histogram.
type failureAcc struct {
	trials, successes    int
	latency, degradation stats.Accumulator
}
