package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/dag"
)

// uniform is m processors with unit delay d between every two of them.
func uniform(m int, d float64) (*Platform, error) {
	delay := make([][]float64, m)
	for k := range delay {
		delay[k] = make([]float64, m)
		for h := range delay[k] {
			if h != k {
				delay[k][h] = d
			}
		}
	}
	return NewFromDelays(delay)
}

// TestNonFiniteRefused pins that every constructor refuses NaN and ±Inf as
// well as negatives: a "< 0" check lets NaN through, and ∞ turns into NaN
// next to a zero, which the schedulers' built-in min/max folds would carry
// into a schedule instead of ignoring.
func TestNonFiniteRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"delay NaN", func() error { _, err := NewFromDelays([][]float64{{0, nan}, {1, 0}}); return err }},
		{"delay +Inf", func() error { _, err := NewFromDelays([][]float64{{0, 1}, {inf, 0}}); return err }},
		{"delay -Inf", func() error { _, err := NewFromDelays([][]float64{{0, math.Inf(-1)}, {1, 0}}); return err }},
		{"random delay min NaN", func() error { _, err := NewRandom(rng, 3, nan, 1); return err }},
		{"random delay max NaN", func() error { _, err := NewRandom(rng, 3, 0.5, nan); return err }},
		{"random delay max +Inf", func() error { _, err := NewRandom(rng, 3, 0.5, inf); return err }},
		{"cost NaN", func() error { _, err := NewCostModelFromMatrix([][]float64{{nan, 1}}); return err }},
		{"cost +Inf", func() error { _, err := NewCostModelFromMatrix([][]float64{{1, inf}}); return err }},
		{"random cost min NaN", func() error { _, err := NewRandomCostModel(rng, 2, 2, nan, 1); return err }},
		{"random cost max +Inf", func() error { _, err := NewRandomCostModel(rng, 2, 2, 1, inf); return err }},
		{"scale NaN", func() error { cm, _ := NewCostModel(2, 2); return cm.Scale(nan) }},
		{"scale +Inf", func() error { cm, _ := NewCostModel(2, 2); return cm.Scale(inf) }},
		{"scale overflows", func() error {
			cm, _ := NewCostModelFromMatrix([][]float64{{1, 1e300}})
			return cm.Scale(1e10)
		}},
	} {
		if tc.err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A refused scale leaves the model as it was.
	cm, err := NewCostModelFromMatrix([][]float64{{1, 1e300}})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Scale(1e10) == nil || cm.Cost(0, 0) != 1 || cm.Cost(0, 1) != 1e300 {
		t.Errorf("overflowing scale: costs now %g, %g", cm.Cost(0, 0), cm.Cost(0, 1))
	}
}

func TestNewUniformPlatform(t *testing.T) {
	p, err := uniform(4, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumProcs() != 4 {
		t.Errorf("NumProcs = %d", p.NumProcs())
	}
	for k := 0; k < 4; k++ {
		if d := p.Delay(ProcID(k), ProcID(k)); d != 0 {
			t.Errorf("d(P%d,P%d) = %g, want 0", k, k, d)
		}
		for h := 0; h < 4; h++ {
			if h != k && p.Delay(ProcID(k), ProcID(h)) != 2.5 {
				t.Errorf("d(P%d,P%d) = %g", k, h, p.Delay(ProcID(k), ProcID(h)))
			}
		}
	}
	if md := p.MeanDelay(); md != 2.5 {
		t.Errorf("MeanDelay = %g", md)
	}
	if md := p.MaxDelay(); md != 2.5 {
		t.Errorf("MaxDelay = %g", md)
	}
	if md := p.MaxDelayFrom(0); md != 2.5 {
		t.Errorf("MaxDelayFrom = %g", md)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := uniform(0, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := uniform(2, -1); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewFromDelays([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewFromDelays([][]float64{{1}}); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	if _, err := NewFromDelays([][]float64{{0, -1}, {1, 0}}); err == nil {
		t.Error("negative entry accepted")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRandom(rng, 3, 2, 1); err == nil {
		t.Error("inverted delay range accepted")
	}
}

func TestNewRandomInRangeAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, err := NewRandom(rng, 10, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		for h := 0; h < 10; h++ {
			d := p.Delay(ProcID(k), ProcID(h))
			if k == h {
				if d != 0 {
					t.Fatalf("diagonal %g", d)
				}
				continue
			}
			if d < 0.5 || d >= 1.0 {
				t.Fatalf("d(P%d,P%d) = %g outside [0.5,1)", k, h, d)
			}
			if d != p.Delay(ProcID(h), ProcID(k)) {
				t.Fatalf("asymmetric link %d-%d", k, h)
			}
		}
	}
	if md := p.MeanDelay(); md < 0.5 || md >= 1.0 {
		t.Errorf("MeanDelay %g outside range", md)
	}
	// Fastest links average <= overall average.
	if f := p.MeanDelayFastestLinks(5); f > p.MeanDelay() {
		t.Errorf("fastest-5 mean %g exceeds overall %g", f, p.MeanDelay())
	}
}

func TestMeanDelaySingleProc(t *testing.T) {
	p, err := uniform(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.MeanDelay() != 0 || p.MeanDelayFastestLinks(3) != 0 {
		t.Error("single-processor delays should be 0")
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := NewRandom(rng, 5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		for h := 0; h < 5; h++ {
			if back.Delay(ProcID(k), ProcID(h)) != p.Delay(ProcID(k), ProcID(h)) {
				t.Fatalf("delay mismatch at (%d,%d)", k, h)
			}
		}
	}
	var bad Platform
	if err := json.Unmarshal([]byte(`{"procs":3,"delay":[[0,1],[1,0]]}`), &bad); err == nil {
		t.Error("inconsistent proc count accepted")
	}
}

func TestCostModelBasics(t *testing.T) {
	cm, err := NewCostModelFromMatrix([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumTasks() != 2 || cm.NumProcs() != 3 {
		t.Errorf("dims %dx%d", cm.NumTasks(), cm.NumProcs())
	}
	if c := cm.Cost(1, 2); c != 6 {
		t.Errorf("Cost(1,2) = %g", c)
	}
	if m := cm.Mean(0); m != 2 {
		t.Errorf("Mean(0) = %g", m)
	}
	if m := cm.Max(1); m != 6 {
		t.Errorf("Max(1) = %g", m)
	}
	if m := cm.Min(1); m != 4 {
		t.Errorf("Min(1) = %g", m)
	}
	if m := cm.MeanFastest(0, 2); m != 1.5 {
		t.Errorf("MeanFastest(0,2) = %g", m)
	}
	if m := cm.MeanOverTasks(); m != 3.5 {
		t.Errorf("MeanOverTasks = %g", m)
	}
}

func TestCostModelScaleAndClone(t *testing.T) {
	cm, err := NewCostModelFromMatrix([][]float64{{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := cm.Clone()
	if err := cm.Scale(3); err != nil {
		t.Fatal(err)
	}
	if cm.Cost(0, 0) != 6 || cm.Cost(0, 1) != 12 {
		t.Error("scale wrong")
	}
	if c.Cost(0, 0) != 2 {
		t.Error("clone affected by scale")
	}
	if err := cm.Scale(-1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestCostModelErrors(t *testing.T) {
	if _, err := NewCostModelFromMatrix(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := NewCostModelFromMatrix([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewCostModelFromMatrix([][]float64{{-1}}); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := NewCostModel(-1, 2); err == nil {
		t.Error("negative task count accepted")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRandomCostModel(rng, 2, 2, 5, 1); err == nil {
		t.Error("inverted cost range accepted")
	}
}

func TestCostModelJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cm, err := NewRandomCostModel(rng, 4, 3, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCostModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for tsk := 0; tsk < 4; tsk++ {
		for p := 0; p < 3; p++ {
			if back.Cost(dag.TaskID(tsk), ProcID(p)) != cm.Cost(dag.TaskID(tsk), ProcID(p)) {
				t.Fatalf("cost mismatch at (%d,%d)", tsk, p)
			}
		}
	}
}

func TestGranularityDefinition(t *testing.T) {
	// Two tasks, one edge of volume 10; slowest delays 2; costs chosen so
	// slowest computations are 6 and 8: g = (6+8)/(10*2) = 0.7.
	g := dag.NewWithTasks("g", 2)
	g.MustAddEdge(0, 1, 10)
	p, err := uniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCostModelFromMatrix([][]float64{{6, 3}, {8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Granularity(g, cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gr-0.7) > 1e-12 {
		t.Errorf("granularity = %g, want 0.7", gr)
	}
}

func TestGranularityNoEdges(t *testing.T) {
	g := dag.NewWithTasks("g", 2)
	p, _ := uniform(2, 1)
	cm, _ := NewCostModelFromMatrix([][]float64{{1, 1}, {1, 1}})
	if _, err := Granularity(g, cm, p); err == nil {
		t.Error("granularity of edgeless graph accepted")
	}
}

func TestPropMeanFastestMonotone(t *testing.T) {
	// MeanFastest is non-decreasing in n (adding slower processors can only
	// raise the average).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm, err := NewRandomCostModel(rng, 1, 10, 1, 100)
		if err != nil {
			return false
		}
		prev := 0.0
		for n := 1; n <= 10; n++ {
			m := cm.MeanFastest(0, n)
			if m < prev-1e-9 {
				return false
			}
			prev = m
		}
		return math.Abs(cm.MeanFastest(0, 10)-cm.Mean(0)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Clone deep-copies the model.
func (cm *CostModel) Clone() *CostModel {
	c := &CostModel{cost: make([][]float64, len(cm.cost))}
	for t := range cm.cost {
		c.cost[t] = append([]float64(nil), cm.cost[t]...)
	}
	return c
}
