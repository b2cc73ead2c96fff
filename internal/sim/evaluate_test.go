package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// mustGen materializes a scenario spec's generator.
func mustGen(t testing.TB, sp sim.ScenarioSpec) sim.ScenarioGenerator {
	t.Helper()
	gen, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// evalSchedule builds a deterministic mid-size FTSA schedule for evaluation
// tests.
func evalSchedule(t testing.TB, procs, eps int) *sched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The acceptance criterion: same seed, any worker count, byte-identical
// EvalResult JSON — for every generator, and for trial counts that straddle
// the engine's 1024-trial chunk boundaries.
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	s := evalSchedule(t, 8, 2)
	type run struct {
		name   string
		gen    sim.ScenarioGenerator
		trials int
	}
	var runs []run
	for _, gen := range []sim.ScenarioGenerator{
		mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 2}),
		mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 1.0 / s.UpperBound()}),
		mustGen(t, sim.ScenarioSpec{Kind: "weibull", Shape: 1.5, Scale: s.UpperBound()}),
		mustGen(t, sim.ScenarioSpec{Kind: "group", GroupSize: 3, Lambda: 1.0 / s.UpperBound()}),
		mustGen(t, sim.ScenarioSpec{Kind: "burst", Crashes: 3, Lambda: 2.0 / s.UpperBound(), Spread: s.UpperBound() / 10}),
		mustGen(t, sim.ScenarioSpec{Kind: "staggered", Crashes: 2, Horizon: s.UpperBound()}),
	} {
		runs = append(runs, run{gen.Spec().Kind, gen, 300})
	}
	for _, trials := range []int{1, 1023, 1024, 1025, 2049} {
		runs = append(runs, run{fmt.Sprintf("trials=%d", trials),
			mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 2.0 / s.UpperBound()}), trials})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 3, 8} {
				res, err := sim.Evaluate(s, r.gen, r.trials, sim.EvalOptions{Seed: 7, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = blob
					continue
				}
				if !bytes.Equal(blob, want) {
					t.Fatalf("workers=%d result differs:\n%s\nvs\n%s", workers, blob, want)
				}
			}
		})
	}
}

// Distinct seeds must explore distinct scenario streams.
func TestEvaluateSeedMatters(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	gen := mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 2.0 / s.UpperBound()})
	a, err := sim.Evaluate(s, gen, 200, sim.EvalOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Evaluate(s, gen, 200, sim.EvalOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency == b.Latency && a.Successes == b.Successes {
		t.Fatal("two seeds produced identical aggregates; generator looks seed-insensitive")
	}
}

// A schedule tolerating ε crashes must survive every uniform-ε scenario at
// time zero — Evaluate over the guarantee region reports 100% success.
func TestEvaluateWithinGuarantee(t *testing.T) {
	s := evalSchedule(t, 8, 2)
	res, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 2}), 250, sim.EvalOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != 1 || res.Successes != 250 {
		t.Fatalf("ε=2 schedule failed under 2 uniform crashes: %+v", res)
	}
	if res.SuccessLow <= 0.9 || res.SuccessHigh != 1 {
		t.Fatalf("Wilson interval [%g,%g] implausible for 250/250", res.SuccessLow, res.SuccessHigh)
	}
	if res.Latency.Mean < s.LowerBound()-1e-9 || res.Latency.Mean > s.UpperBound()+1e-9 {
		t.Fatalf("mean crash latency %g outside [M*=%g, M=%g]", res.Latency.Mean, s.LowerBound(), s.UpperBound())
	}
	if res.Latency.P50 > res.Latency.P99 || res.Latency.Max > s.UpperBound()+1e-9 {
		t.Fatalf("latency summary inconsistent: %+v", res.Latency)
	}
	// All trials crash exactly 2 processors: one histogram bucket.
	if len(res.ByFailures) != 1 || res.ByFailures[0].Failures != 2 {
		t.Fatalf("histogram %+v, want a single failures=2 bucket", res.ByFailures)
	}
	if res.ByFailures[0].MeanDegradation < 0 {
		t.Fatalf("negative degradation %g", res.ByFailures[0].MeanDegradation)
	}
}

// Beyond the guarantee the success rate must drop below 1 but stay
// consistent with the histogram decomposition.
func TestEvaluateHistogramConserves(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	res, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 2.0 / s.UpperBound()}), 400, sim.EvalOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trials, succ := 0, 0
	prev := -1
	for _, b := range res.ByFailures {
		if b.Failures <= prev {
			t.Fatalf("histogram not ascending: %+v", res.ByFailures)
		}
		prev = b.Failures
		trials += b.Trials
		succ += b.Successes
		if b.Successes > b.Trials {
			t.Fatalf("bucket %+v has more successes than trials", b)
		}
	}
	if trials != res.Trials || succ != res.Successes {
		t.Fatalf("histogram sums %d/%d, result says %d/%d", succ, trials, res.Successes, res.Trials)
	}
	if res.SuccessLow > res.SuccessRate || res.SuccessRate > res.SuccessHigh {
		t.Fatalf("Wilson interval [%g,%g] excludes the point estimate %g",
			res.SuccessLow, res.SuccessHigh, res.SuccessRate)
	}
}

// Evaluate agrees with the one-shot simulator trial for trial: replaying the
// same seeded scenario through Run must reproduce each trial's outcome.
func TestEvaluateAgreesWithRun(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	gen := mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 1.5 / s.UpperBound()})
	const trials = 64
	res, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	latSum := 0.0
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(sim.TrialSeed(5, i)))
		sc := sim.NewScenario(8)
		var scratch sim.ScenarioScratch
		if err := gen.FillScenario(rng, &sc, &scratch); err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(s, sc, nil)
		if err != nil {
			continue
		}
		succ++
		latSum += r.Latency
	}
	if succ != res.Successes {
		t.Fatalf("serial replay found %d successes, Evaluate %d", succ, res.Successes)
	}
	if succ > 0 {
		if got := res.Latency.Mean; math.Abs(got-latSum/float64(succ)) > 1e-9*latSum {
			t.Fatalf("mean latency %g, serial replay %g", got, latSum/float64(succ))
		}
	}
}

// Memory must stay flat in the trial count: 16× the trials may not cost
// meaningfully more allocations per Evaluate call.
func TestEvaluateMemoryFlatInTrials(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	gen := mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 1.0 / s.UpperBound()})
	measure := func(trials int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: 1, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64), measure(1024)
	// The fixed overhead (one runner per worker, the chunk buffer,
	// par.For's goroutines, the result) is tens of allocs; anything
	// per-trial would blow the large run past 2× the small one.
	if large > 2*small+64 {
		t.Fatalf("allocs grow with trials: %g at 64 trials, %g at 1024", small, large)
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	if _, err := sim.Evaluate(s, nil, 10, sim.EvalOptions{}); err == nil {
		t.Error("want error for nil generator")
	}
	if _, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 1}), 0, sim.EvalOptions{}); err == nil {
		t.Error("want error for zero trials")
	}
	if _, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 99}), 10, sim.EvalOptions{}); err == nil {
		t.Error("want error for more crashes than processors")
	}
	if _, err := (sim.ScenarioSpec{Kind: "exp", Lambda: -1}).Generator(); err == nil {
		t.Error("want error for negative rate")
	}
}

// One worker is plenty to saturate a single-trial evaluation.
func TestEvaluateSingleTrial(t *testing.T) {
	s := evalSchedule(t, 8, 1)
	res, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 1}), 1, sim.EvalOptions{Seed: 9, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 1 {
		t.Fatalf("trials = %d, want 1", res.Trials)
	}
}

// BenchmarkEvaluate demonstrates the O(1)-in-trials memory contract:
// allocs/op must be essentially identical across the trial counts.
func BenchmarkEvaluate(b *testing.B) {
	s := evalSchedule(b, 8, 1)
	gen := mustGen(b, sim.ScenarioSpec{Kind: "exp", Lambda: 1.0 / s.UpperBound()})
	for _, trials := range []int{64, 512, 4096} {
		b.Run(itoa(trials), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	blob, _ := json.Marshal(v)
	return "trials-" + string(blob)
}

func TestLatencyMeanInterval(t *testing.T) {
	s := evalSchedule(t, 8, 2)
	res, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 1}), 200, sim.EvalOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes == 0 {
		t.Fatal("evaluation produced no successes; pick a friendlier scenario")
	}
	lo, hi, ok := res.LatencyMeanInterval(1.96)
	if !ok {
		t.Fatal("interval not ok despite successes")
	}
	if !(lo <= res.Latency.Mean && res.Latency.Mean <= hi) {
		t.Fatalf("mean %g outside its own interval [%g, %g]", res.Latency.Mean, lo, hi)
	}
	wantHalf := 1.96 * res.Latency.StdDev / math.Sqrt(float64(res.Successes))
	if got := (hi - lo) / 2; math.Abs(got-wantHalf) > 1e-12 {
		t.Fatalf("half-width %g, want %g", got, wantHalf)
	}

	// All processors dead at t=0: nothing can succeed, interval must report !ok.
	dead, err := sim.Evaluate(s, mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 8}), 10, sim.EvalOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dead.Successes != 0 {
		t.Fatalf("crashing every processor still succeeded %d times", dead.Successes)
	}
	if _, _, ok := dead.LatencyMeanInterval(1.96); ok {
		t.Fatal("interval ok with zero successes")
	}
}
