package stats

import (
	"fmt"
	"math"
)

// Accumulator ingests float64 samples and reports summary statistics.
// It uses Welford's algorithm, so it is numerically stable for long runs.
// The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add ingests one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean. With the paper's 60 samples per point the normal
// approximation is adequate.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Series is a named sequence of (x, Accumulator) points, e.g. one curve of a
// figure: x is the granularity, the accumulator collects the per-graph
// normalized latencies at that granularity.
type Series struct {
	Name   string
	Xs     []float64
	Points []*Accumulator
}

// NewSeries creates an empty series with the given name.
func NewSeries(name string) *Series { return &Series{Name: name} }

// At returns the accumulator for x, creating the point if needed. Points are
// kept in insertion order; the harness inserts xs in ascending order.
func (s *Series) At(x float64) *Accumulator {
	for i, xv := range s.Xs {
		if xv == x {
			return s.Points[i]
		}
	}
	acc := &Accumulator{}
	s.Xs = append(s.Xs, x)
	s.Points = append(s.Points, acc)
	return acc
}

// Means returns the per-point means, aligned with Xs.
func (s *Series) Means() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Mean()
	}
	return out
}
