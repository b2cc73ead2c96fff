package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawAll advances a and b through every rand.Rand method the tree calls
// and fails at the first disagreement.
func drawAll(t *testing.T, seed int64, round int, a, b *rand.Rand) {
	t.Helper()
	check := func(what string, x, y any) {
		if x != y {
			t.Fatalf("seed %d round %d: %s = %v, math/rand gives %v", seed, round, what, x, y)
		}
	}
	check("Int63", a.Int63(), b.Int63())
	check("Uint64", a.Uint64(), b.Uint64())
	check("Intn", a.Intn(1000), b.Intn(1000))
	check("Float64", math.Float64bits(a.Float64()), math.Float64bits(b.Float64()))
	check("ExpFloat64", math.Float64bits(a.ExpFloat64()), math.Float64bits(b.ExpFloat64()))
	check("NormFloat64", math.Float64bits(a.NormFloat64()), math.Float64bits(b.NormFloat64()))
	pa, pb := a.Perm(7), b.Perm(7)
	for i := range pa {
		check("Perm", pa[i], pb[i])
	}
	sa, sb := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
	a.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
	b.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
	for i := range sa {
		check("Shuffle", sa[i], sb[i])
	}
}

// matchInt63 compares n raw outputs of a lazily seeded source with
// math/rand's.
func matchInt63(t *testing.T, seed int64, n int) {
	t.Helper()
	a, b := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d output %d: %d, math/rand gives %d", seed, i, x, y)
		}
	}
}

var edgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, 1 << 31, -1 << 31, int32max - 1, 2 * int32max,
	math.MinInt64, math.MaxInt64, 89482311,
}

func TestSourceMatchesMathRand(t *testing.T) {
	// Draw counts on both sides of the tap's (273) and the feed's (334)
	// last unfilled cell and of one full turn of the register (607).
	for _, seed := range edgeSeeds {
		for _, n := range []int{1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 2000} {
			matchInt63(t, seed, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	seeds := 10000
	if testing.Short() {
		seeds = 1000
	}
	for i := 0; i < seeds; i++ {
		seed := rng.Int63() - rng.Int63()
		a, b := New(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 8+i%40; round++ {
			drawAll(t, seed, round, a, b)
		}
	}
}

// TestReseedMidStream reseeds one generator at several depths, including
// after the register has turned over, and checks it restarts the stream.
func TestReseedMidStream(t *testing.T) {
	a := New(7)
	for _, depth := range []int{0, 5, 273, 300, 334, 700} {
		for _, seed := range edgeSeeds {
			for i := 0; i < depth; i++ {
				a.Int63()
			}
			a.Seed(seed)
			b := rand.New(rand.NewSource(seed))
			for round := 0; round < 60; round++ {
				drawAll(t, seed, round, a, b)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		matchInt63(t, seed, int(n%2048))
	})
}

func BenchmarkSeed(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.Intn(10)
			r.Intn(10)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.Intn(10)
			r.Intn(10)
		}
	})
}
