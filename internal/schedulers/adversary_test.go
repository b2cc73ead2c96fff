package schedulers_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// TestWorstCaseDominatesMonteCarlo is the acceptance property of the
// adversarial search: for every registered scheduler, the reported worst
// case is at least as damaging as the worst of N Monte-Carlo uniform:k
// draws on the same replay budget. The guarantee is deterministic, not
// statistical — the search's exhaustive phase covers uniform:k's entire
// support (every k-subset crashed at time 0) whenever it fits the budget,
// which it does here by construction.
func TestWorstCaseDominatesMonteCarlo(t *testing.T) {
	const (
		procs  = 6
		k      = 2
		budget = 300 // >> C(6,2)+1, so the exhaustive phase always runs
	)
	rng := rand.New(rand.NewSource(77))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 20, 30
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sched.Registrations() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			t.Parallel()
			eps := 0
			if r.FaultTolerant {
				eps = 1
			}
			s, err := sched.Run(r.Name(), inst.Graph, inst.Platform, inst.Costs,
				sched.RunOptions{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			wc, err := sim.WorstCase(s, sim.AdversarySpec{Crashes: k, MaxEvals: budget}, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !wc.Exhaustive {
				t.Fatalf("search was not exhaustive within budget %d: %+v", budget, wc)
			}
			if wc.Evals > budget {
				t.Fatalf("search spent %d evals over the budget %d", wc.Evals, budget)
			}
			gen, err := sim.ScenarioSpec{Kind: "uniform", Crashes: k}.Generator()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Evaluate(s, gen, budget, sim.EvalOptions{Seed: 9, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			anyMiss := res.Successes < res.Trials
			if anyMiss && !wc.Missed {
				t.Fatalf("a Monte-Carlo draw missed but the adversary reports no miss: %+v vs %+v", res, wc)
			}
			if !anyMiss && !wc.Missed && res.Latency.Max > wc.Latency+1e-9 {
				t.Fatalf("Monte-Carlo max latency %g beats the reported worst case %g",
					res.Latency.Max, wc.Latency)
			}
		})
	}
}
