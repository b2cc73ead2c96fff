package sim

import (
	"errors"
	"testing"

	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
)

// TestStrictMatchedStarvation documents a reproduction finding about
// Proposition 4.3 of the paper: the robustness of the matched communication
// set is proved per precedence edge, but it does not compose across chains
// of edges. Each MC-FTSA replica depends on one specific upstream copy per
// edge, so the set of processors that can starve a given replica grows with
// the depth of the graph; for deep graphs a single crash can starve every
// replica of an exit task. Under strict matched-only semantics the schedule
// therefore fails for some (often most) single-crash scenarios, while the
// degraded-mode rerouting semantics (the default, and the only semantics
// consistent with the finite MC-FTSA crash latencies in Figures 1b-3b of
// the paper) always survives ≤ ε crashes.
func TestStrictMatchedStarvation(t *testing.T) {
	inst := instance(t, 5, 6)
	const eps = 2
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Platform.NumProcs()
	strictFailures := 0
	for j := 0; j < m; j++ {
		sc, err := CrashAtZero(m, platform.ProcID(j))
		if err != nil {
			t.Fatal(err)
		}
		_, serr := RunWithOptions(s, sc, Options{StrictMatched: true})
		if serr != nil {
			if !errors.Is(serr, ErrNotTolerated) {
				t.Fatalf("crash P%d: unexpected error %v", j, serr)
			}
			strictFailures++
		}
		// Degraded mode must always survive a single crash (ε = 2).
		if _, derr := Run(s, sc, nil); derr != nil {
			t.Errorf("crash P%d: degraded mode failed: %v", j, derr)
		}
	}
	if strictFailures == 0 {
		t.Skip("instance happened to be strictly robust; the finding needs a deep graph")
	}
	t.Logf("strict matched semantics starved %d/%d single-crash scenarios", strictFailures, m)
}

// TestStrictMatchedNoFailure verifies strict semantics are exactly the
// optimistic schedule when nothing fails.
func TestStrictMatchedNoFailure(t *testing.T) {
	inst := instance(t, 2, 8)
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithOptions(s, NoFailures(8), Options{StrictMatched: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Latency - s.LowerBound(); diff > 1e-7 || diff < -1e-7 {
		t.Errorf("strict no-failure latency %g != lower bound %g", res.Latency, s.LowerBound())
	}
}
