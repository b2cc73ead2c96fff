package sim

import (
	"math"
	"testing"

	"ftsched/internal/platform"
)

func testPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p, err := uniformPlatform(3, 2.0) // d = 2 between distinct processors
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestContentionFreeDelivery(t *testing.T) {
	p := testPlatform(t)
	m := ContentionFree{}
	if got := m.Deliver(p, 0, 1, 5, 10); got != 20 { // 10 + 5·2
		t.Errorf("remote delivery = %g, want 20", got)
	}
	if got := m.Deliver(p, 1, 1, 5, 10); got != 10 { // intra-processor
		t.Errorf("local delivery = %g, want 10", got)
	}
	if m.Name() == "" {
		t.Error("empty name")
	}
}

func TestOnePortSerializesSender(t *testing.T) {
	p := testPlatform(t)
	m := NewOnePort(3)
	// First message: send at 0, occupies P0 until 10 (5·2).
	if got := m.Deliver(p, 0, 1, 5, 0); got != 10 {
		t.Errorf("first = %g, want 10", got)
	}
	// Second message ready at 0 but the port is busy until 10: arrives 16.
	if got := m.Deliver(p, 0, 2, 3, 0); got != 16 {
		t.Errorf("second = %g, want 16", got)
	}
	// Intra-processor messages bypass the port entirely.
	if got := m.Deliver(p, 0, 0, 99, 5); got != 5 {
		t.Errorf("local = %g, want 5", got)
	}
	// A different sender has its own port.
	if got := m.Deliver(p, 1, 0, 1, 0); got != 2 {
		t.Errorf("other sender = %g, want 2", got)
	}
	m.Reset(3)
	if got := m.Deliver(p, 0, 1, 5, 0); got != 10 {
		t.Errorf("after reset = %g, want 10", got)
	}
}

func TestBoundedMultiPortChannels(t *testing.T) {
	p := testPlatform(t)
	m, err := NewBoundedMultiPort(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent transfers fit the two ports.
	if got := m.Deliver(p, 0, 1, 5, 0); got != 10 {
		t.Errorf("port 1 = %g", got)
	}
	if got := m.Deliver(p, 0, 2, 5, 0); got != 10 {
		t.Errorf("port 2 = %g", got)
	}
	// The third transfer waits for the earliest port (free at 10).
	if got := m.Deliver(p, 0, 1, 1, 0); got != 12 {
		t.Errorf("queued = %g, want 12", got)
	}
	if _, err := NewBoundedMultiPort(3, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if m.Name() != "2-port" {
		t.Errorf("name %q", m.Name())
	}
}

func TestOnePortNeverBeatsContentionFree(t *testing.T) {
	p := testPlatform(t)
	one := NewOnePort(3)
	free := ContentionFree{}
	send := []struct {
		src, dst platform.ProcID
		vol, at  float64
	}{
		{0, 1, 5, 0}, {0, 2, 2, 1}, {1, 0, 3, 2}, {0, 1, 1, 3},
	}
	for _, s := range send {
		a := one.Deliver(p, s.src, s.dst, s.vol, s.at)
		b := free.Deliver(p, s.src, s.dst, s.vol, s.at)
		if a < b-1e-12 {
			t.Errorf("one-port %g beats contention-free %g", a, b)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Errorf("non-finite arrival %g", a)
		}
	}
}
