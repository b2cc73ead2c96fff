package reliability

import (
	"errors"
	"fmt"
	"math"

	"ftsched/internal/sched"
	"ftsched/internal/sim"
)

// Exponential describes i.i.d. exponential processor lifetimes with the
// given failure rate λ (failures per unit time).
type Exponential struct {
	Lambda float64
}

// ErrBadRate reports a non-positive failure rate.
var ErrBadRate = errors.New("reliability: failure rate must be positive")

// Generator bridges the law to the simulator's batch evaluation engine: it
// is the exp scenario spec's generator, so sim.Evaluate with it draws
// exactly the scenarios MonteCarlo scores. A non-positive rate is an error.
func (e Exponential) Generator() (sim.ScenarioGenerator, error) {
	return sim.ScenarioSpec{Kind: "exp", Lambda: e.Lambda}.Generator()
}

// Weibull describes i.i.d. Weibull processor lifetimes — the hardware-aging
// law the exponential model cannot express: Shape < 1 captures infant
// mortality (failure rate decreasing in time), Shape > 1 wear-out, and
// Shape = 1 degenerates to Exponential with rate 1/Scale.
type Weibull struct {
	// Shape is the Weibull k parameter; Scale the characteristic life λ
	// (the time by which ~63.2% of processors have failed).
	Shape, Scale float64
}

// SurvivalLowerBound returns the probability that at most epsilon of m
// processors fail within the mission time — a lower bound on the schedule's
// success probability, by Theorem 4.1. It sums the binomial tail
// Σ_{k=0..ε} C(m,k) p^k (1−p)^(m−k) with p = 1 − exp(−λ·mission).
func SurvivalLowerBound(e Exponential, m, epsilon int, mission float64) (float64, error) {
	if e.Lambda <= 0 {
		return 0, ErrBadRate
	}
	if m <= 0 || epsilon < 0 || mission < 0 {
		return 0, fmt.Errorf("reliability: invalid parameters m=%d ε=%d mission=%g", m, epsilon, mission)
	}
	p := 1 - math.Exp(-e.Lambda*mission)
	total := 0.0
	for k := 0; k <= epsilon && k <= m; k++ {
		total += binomPMF(m, k, p)
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// binomPMF computes C(n,k) p^k (1-p)^(n-k) in log space for stability.
func binomPMF(n, k int, p float64) float64 {
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lg)
}

func lchoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// MonteCarloResult summarizes a sampled reliability estimate.
type MonteCarloResult struct {
	// Success is the fraction of sampled failure scenarios in which the
	// schedule delivered a result.
	Success float64
	// MeanLatency averages the achieved latency over successful runs.
	MeanLatency float64
	// Trials is the sample count.
	Trials int
}

// MonteCarlo estimates the schedule's success probability by sampling crash
// times for every processor from the exponential law and replaying the
// schedule through the simulator. Unlike SurvivalLowerBound it credits runs
// where more than ε processors fail but only after their work is done, and
// debits nothing (crash-at-work is simulated exactly).
//
// It is a thin view over sim.Evaluate with the law's generator and
// deterministic per-trial seeding: MonteCarlo(seed, ...) and
// sim.Evaluate(..., EvalOptions{Seed: seed}) with e.Generator() see the same
// crash draws trial for trial, so the two reports always agree.
func MonteCarlo(seed int64, s *sched.Schedule, e Exponential, trials int) (*MonteCarloResult, error) {
	if e.Lambda <= 0 {
		return nil, ErrBadRate
	}
	gen, _ := e.Generator() // the rate is checked above
	res, err := sim.Evaluate(s, gen, trials, sim.EvalOptions{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("reliability: %w", err)
	}
	return &MonteCarloResult{
		Success:     res.SuccessRate,
		MeanLatency: res.Latency.Mean,
		Trials:      res.Trials,
	}, nil
}
