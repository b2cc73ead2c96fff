package stats

import "math/bits"

// histSubBits is the number of linear sub-buckets per power-of-two octave,
// as a power of two: 2^histSubBits = 16 sub-buckets, bounding the relative
// quantization error of any recorded value by 1/16 ≈ 6%.
const histSubBits = 4

// histBuckets covers values up to 2^63-1 ns (~292 years), whose octave ends
// at index 63<<histSubBits - 1; no more, so a Histogram fits in 8 KiB.
const histBuckets = 63 << histSubBits

// Histogram is an HDR-style log-linear histogram over non-negative int64
// values (by convention nanoseconds): each power-of-two octave is divided
// into 16 linear sub-buckets, so quantiles are exact to ~6% relative error
// across the full range — microsecond cache hits and multi-second tail
// stalls fit in the same fixed-size instrument with no a-priori bounds.
//
// All state is integral (bucket counts, exact integer extremes and sum), so
// Merge is associative and commutative bit-for-bit: N workers recording into
// private histograms and merging produce exactly the counts of one worker
// recording the same multiset, whatever the interleaving or worker count.
// That property is what lets a load run report byte-identical quantiles at
// any concurrency.
//
// A Histogram is not synchronized; concurrent writers must use one instance
// each and Merge afterwards (which is also the fast path — no contention).
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	min    int64 // valid when count > 0
	max    int64
}

// histBucket maps a value to its bucket index. Values below one sub-bucket
// width land in the linear bottom buckets (index == value for small v).
func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	e := bits.Len64(u) // 0 for v == 0
	if e <= histSubBits+1 {
		return int(u) // small values: one bucket per unit, exact
	}
	// Octave [2^(e-1), 2^e): linear sub-bucket within it.
	shift := uint(e - 1 - histSubBits)
	return ((e - 1) << histSubBits) + int((u>>shift)&((1<<histSubBits)-1))
}

// histUpper returns the inclusive upper bound of bucket idx — the value
// Quantile reports for samples in the bucket. Reporting the upper bound
// makes quantiles conservative: the true quantile is never above it.
func histUpper(idx int) int64 {
	e := idx >> histSubBits
	if e <= histSubBits {
		// Small-value region where buckets are exact single values. The
		// region covers indices up to (histSubBits+1)<<histSubBits; within
		// it the bucket index is the value itself.
		if idx < (histSubBits+1)<<histSubBits {
			return int64(idx)
		}
	}
	sub := idx & (1<<histSubBits - 1)
	shift := uint(e - histSubBits)
	lower := uint64(1)<<uint(e) + uint64(sub)<<shift
	return int64(lower + 1<<shift - 1)
}

// Record ingests one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN ingests n occurrences of v.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += uint64(v) * n
}

// Merge adds other's samples into h. Merging is exact: counts, sum and
// extremes combine with integer arithmetic only.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the exact largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean of the recorded samples (0 when empty). The
// internal sum is integral, so the result does not depend on recording or
// merge order.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (q in [0,1]) by the nearest-rank method
// over bucket upper bounds: Quantile(0) is the exact minimum, Quantile(1)
// the exact maximum, and interior quantiles are bucket upper bounds — never
// below the true order statistic and at most ~6% above it. It returns 0 for
// an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Nearest rank: the smallest bucket whose cumulative count reaches
	// ceil(q·n).
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			u := histUpper(i)
			// The top bucket cannot report past the exact maximum.
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Summary condenses one histogram into milliseconds: the latency report of
// ftload and of the serving tier's /stats. Count, mean and max are exact;
// the quantiles carry the histogram's ~6% bucket error. Each value derives
// from integral histogram state by a single float operation, so equal
// sample multisets summarize byte-identically.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary reports h, whose samples are nanoseconds, in milliseconds.
func (h *Histogram) Summary() Summary {
	const msPerNs = 1e-6
	return Summary{
		Count:  h.Count(),
		MeanMs: h.Mean() * msPerNs,
		P50Ms:  float64(h.Quantile(0.5)) * msPerNs,
		P99Ms:  float64(h.Quantile(0.99)) * msPerNs,
		P999Ms: float64(h.Quantile(0.999)) * msPerNs,
		MaxMs:  float64(h.Max()) * msPerNs,
	}
}
