package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.StdDev() != 0 {
		t.Error("zero accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %g", a.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if v := a.Variance(); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("extrema %g %g", a.Min(), a.Max())
	}
	if a.StdErr() <= 0 || a.CI95() <= 0 {
		t.Error("non-positive error estimates")
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(42)
	if a.Mean() != 42 || a.Variance() != 0 || a.Min() != 42 || a.Max() != 42 {
		t.Errorf("single sample: %s", a.String())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("curve")
	s.At(0.2).Add(1)
	s.At(0.2).Add(3)
	s.At(0.4).Add(10)
	if len(s.Xs) != 2 {
		t.Errorf("Len = %d", len(s.Xs))
	}
	means := s.Means()
	if means[0] != 2 || means[1] != 10 {
		t.Errorf("Means = %v", means)
	}
	if s.At(0.2).N() != 2 {
		t.Error("At did not return the existing point")
	}
}

func TestPropWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*50 + 1000
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropExtremaAndOrdering(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip non-finite inputs and magnitudes where (x - mean)
			// overflows — the accumulator targets physical quantities.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		if a.Min() > a.Max() {
			return false
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
