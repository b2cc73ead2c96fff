package reliability

import (
	"errors"
	"fmt"
	"math"
)

// Exponential describes i.i.d. exponential processor lifetimes with the
// given failure rate λ (failures per unit time).
type Exponential struct {
	Lambda float64
}

// ErrBadRate reports a non-positive failure rate.
var ErrBadRate = errors.New("reliability: failure rate must be positive")

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
