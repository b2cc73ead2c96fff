package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s —
// the popularity skew real request streams show, where a handful of hot
// instances absorb most traffic. Rank 0 is the most popular. s = 0
// degenerates to uniform; s around 1 is the classic web-trace skew.
//
// Sampling inverts the precomputed CDF with a binary search, so a draw is
// O(log n) and driven entirely by the caller's rng: equal seeds yield equal
// rank sequences, the property the deterministic load mode builds on.
// (math/rand's built-in Zipf generator is a rejection sampler whose draw
// count per sample varies, which would break index-addressable request
// synthesis; the CDF inversion consumes exactly one uniform per sample.)
type Zipf struct {
	cdf []float64 // cdf[r] = P(rank <= r), cdf[n-1] == 1
}

// NewZipf precomputes the CDF for n ranks with exponent s >= 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("load: zipf needs >= 1 rank, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("load: zipf exponent must be finite and >= 0, got %g", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[n-1] = 1 // exact, despite rounding
	return &Zipf{cdf: cdf}, nil
}

// Rank maps a uniform u in [0,1) to its rank — the inverse CDF.
func (z *Zipf) Rank(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}

// Sample draws one rank, consuming exactly one uniform from rng.
func (z *Zipf) Sample(rng *rand.Rand) int {
	// Float64 returns values in [0,1); SearchFloat64s finds the first
	// cdf entry > u is what we want — Search returns the first index with
	// cdf[i] >= u, and u == cdf[i] exactly has probability ~0 and still
	// yields a valid rank.
	return z.Rank(rng.Float64())
}
