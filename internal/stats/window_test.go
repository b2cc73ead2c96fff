package stats

import "testing"

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(8)
	if w.Len() != 0 {
		t.Fatalf("empty window reports Len=%d", w.Len())
	}
	if q := w.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile(0.5) = %g, want 0", q)
	}
}

func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := w.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Add(float64(i))
	}
	// Only 7..10 remain.
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4", w.Len())
	}
	if lo, hi := w.Quantile(0), w.Quantile(1); lo != 7 || hi != 10 {
		t.Fatalf("window range [%g,%g], want [7,10]", lo, hi)
	}
}

func TestWindowSingleSample(t *testing.T) {
	w := NewWindow(1)
	w.Add(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := w.Quantile(q); got != 42 {
			t.Errorf("Quantile(%g) = %g, want 42", q, got)
		}
	}
}
