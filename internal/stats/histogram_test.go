package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBucketMonotone(t *testing.T) {
	// Bucket index and bucket upper bound must both be monotone in the
	// value, and the upper bound must never be below the value it covers.
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 31, 32, 33, 63, 64, 100, 1000,
		4095, 4096, 1 << 20, 1<<20 + 7, 1 << 40, 1<<62 + 12345, math.MaxInt64} {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("histBucket(%d) = %d, below previous bucket %d", v, idx, prev)
		}
		prev = idx
		if up := histUpper(idx); up < v {
			t.Errorf("histUpper(histBucket(%d)) = %d, below the value", v, up)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// The reported quantile must sit within 1/16 relative error above the
	// exact order statistic (and never below it).
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	values := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 2e6) // exponential around 2ms in ns
		h.Record(v)
		values = append(values, v)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := exactQuantile(values, q)
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%g: histogram %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*(1+1.0/16)+1 {
			t.Errorf("q=%g: histogram %d more than 1/16 above exact %d", q, got, exact)
		}
	}
	if h.Quantile(0) != exactQuantile(values, 0) {
		t.Errorf("Quantile(0) = %d, want exact min %d", h.Quantile(0), exactQuantile(values, 0))
	}
	if h.Quantile(1) != exactQuantile(values, 1) {
		t.Errorf("Quantile(1) = %d, want exact max %d", h.Quantile(1), exactQuantile(values, 1))
	}
}

func exactQuantile(values []int64, q float64) int64 {
	sorted := append([]int64(nil), values...)
	for i := 1; i < len(sorted); i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramMergeProperty is the merge property test: splitting one
// interleaved stream across any number of histograms and merging must
// reproduce the single-stream quantiles, counts, sum and extremes exactly.
func TestHistogramMergeProperty(t *testing.T) {
	for _, parts := range []int{2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(100 + parts)))
		var single Histogram
		shards := make([]Histogram, parts)
		for i := 0; i < 20000; i++ {
			v := int64(rng.ExpFloat64() * 1e6)
			if rng.Intn(100) == 0 {
				v *= 500 // heavy tail
			}
			single.Record(v)
			// Interleave: round-robin with a random skew.
			shards[(i+rng.Intn(parts))%parts].Record(v)
		}
		var merged Histogram
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged.Count() != single.Count() {
			t.Fatalf("parts=%d: merged count %d != single %d", parts, merged.Count(), single.Count())
		}
		if merged.Min() != single.Min() || merged.Max() != single.Max() {
			t.Fatalf("parts=%d: merged extremes [%d,%d] != single [%d,%d]",
				parts, merged.Min(), merged.Max(), single.Min(), single.Max())
		}
		if merged.Mean() != single.Mean() {
			t.Fatalf("parts=%d: merged mean %g != single %g", parts, merged.Mean(), single.Mean())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			if m, s := merged.Quantile(q), single.Quantile(q); m != s {
				t.Errorf("parts=%d q=%g: merged %d != single %d", parts, q, m, s)
			}
		}
	}
}

func TestHistogramMergeOrderIndependent(t *testing.T) {
	var a, b, ab, ba Histogram
	for i := int64(0); i < 1000; i++ {
		a.Record(i * 997 % 50000)
		b.Record(i * 31 % 2000000)
	}
	ab.Merge(&a)
	ab.Merge(&b)
	ba.Merge(&b)
	ba.Merge(&a)
	if ab != ba {
		t.Fatal("merge is not commutative")
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Merge(nil) // must not panic
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative samples must clamp to 0, got min=%d max=%d count=%d",
			h.Min(), h.Max(), h.Count())
	}
}

// Min returns the exact smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}
