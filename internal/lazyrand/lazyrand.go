// Package lazyrand is math/rand's own generator with an O(1) Seed.
//
// rand.NewSource(seed) fills its 607-word register on every Seed: 1 841
// Park–Miller steps, about 13 µs on a 2-CPU Xeon box, however few numbers
// follow. This system
// reseeds once per Monte-Carlo trial, per campaign cell and per request, and
// most of those streams are read a handful of times. Source produces exactly
// rand.NewSource's stream — same seed reduction, same register, same
// rngCooked table — but computes each register cell the first time an
// output reads it, from the Park–Miller state's closed form
//
//	x_k = x₀·48271^k mod (2³¹−1)
//
// so Seed is O(1), and each of the first 334 outputs also fills the one or
// two cells it reads.
package lazyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lazyOutputs is the number of outputs that read an unfilled cell:
	// output n reads tap cell 606−n, first read while n < rngTap, and feed
	// cell 333−n, first read while n < lazyOutputs. From then on every cell
	// read is one an earlier output wrote.
	lazyOutputs = rngLen - rngTap
)

// pow[k] is 48271^k mod (2³¹−1), for every Park–Miller state a register cell
// is built from: cell i folds x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ.
var pow = func() (p [21 + 3*rngLen]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % int32max
	}
	return p
}()

// Source is a rand.Source64 producing rand.NewSource's stream. Create it
// with New; its zero value is not seeded.
type Source struct {
	tap, feed int
	// n counts the outputs since Seed until it reaches lazyOutputs; below
	// that, the cells no output has read yet hold another seed's values.
	n   int
	x0  uint64 // the reduced seed, in [1, 2³¹−1)
	vec [rngLen]int64
}

// New returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) draws. Reseeding it through rand.Rand.Seed
// is O(1).
func New(seed int64) *rand.Rand {
	s := &Source{}
	s.Seed(seed)
	return rand.New(s)
}

// Seed restarts the stream at seed, reduced as math/rand reduces it.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < lazyOutputs {
		if s.n < rngTap {
			s.vec[s.tap] = s.cell(s.tap)
		}
		s.vec[s.feed] = s.cell(s.feed)
		s.n++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// cell is register cell i as math/rand's Seed leaves it.
func (s *Source) cell(i int) int64 {
	k := 21 + 3*i
	return int64(s.x(k))<<40 ^ int64(s.x(k+1))<<20 ^ int64(s.x(k+2)) ^ rngCooked[i]
}

// x is the k-th Park–Miller state after x₀. The product is below 2⁶², and
// two Mersenne folds bring it to [0, 2³¹]; x₀ and 48271 are units mod the
// prime 2³¹−1, so the result is never 0 and at most one subtraction remains.
func (s *Source) x(k int) uint64 {
	p := s.x0 * pow[k]
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}
