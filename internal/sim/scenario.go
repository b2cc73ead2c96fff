package sim

import (
	"fmt"
	"math"
	"math/rand"

	"ftsched/internal/platform"
)

// Scenario assigns a crash time to every processor; +Inf means the processor
// never fails. A crash time of 0 models the adversarial worst case used by
// the paper's crash experiments: the processor contributes nothing at all.
type Scenario struct {
	CrashTime []float64
}

// NoFailures returns a scenario where all m processors stay alive.
func NoFailures(m int) Scenario {
	s := Scenario{CrashTime: make([]float64, m)}
	for i := range s.CrashTime {
		s.CrashTime[i] = math.Inf(1)
	}
	return s
}

// CrashAtZero returns a scenario where the listed processors fail before
// doing any work and the others never fail.
func CrashAtZero(m int, procs ...platform.ProcID) (Scenario, error) {
	s := NoFailures(m)
	for _, p := range procs {
		if int(p) < 0 || int(p) >= m {
			return Scenario{}, fmt.Errorf("sim: processor %d outside platform of size %d", p, m)
		}
		s.CrashTime[p] = 0
	}
	return s, nil
}

// UniformCrashes draws n distinct processors uniformly (the paper:
// "processors that fail during the schedule process are chosen uniformly")
// and crashes them at time 0.
func UniformCrashes(rng *rand.Rand, m, n int) (Scenario, error) {
	if n < 0 || n > m {
		return Scenario{}, fmt.Errorf("sim: cannot crash %d of %d processors", n, m)
	}
	perm := rng.Perm(m)
	procs := make([]platform.ProcID, n)
	for i := 0; i < n; i++ {
		procs[i] = platform.ProcID(perm[i])
	}
	return CrashAtZero(m, procs...)
}

// Crash sets the crash time of one processor.
func (s *Scenario) Crash(p platform.ProcID, at float64) error {
	if int(p) < 0 || int(p) >= len(s.CrashTime) {
		return fmt.Errorf("sim: processor %d outside platform of size %d", p, len(s.CrashTime))
	}
	if at < 0 {
		return fmt.Errorf("sim: negative crash time %g", at)
	}
	s.CrashTime[p] = at
	return nil
}

// NumFailedBefore counts processors crashing strictly before time t — the
// failures that can actually affect an execution finishing by t. Under a
// lifetime law every crash time is finite, so counting finite crash times
// degenerates to the platform size; this is the meaningful count for
// mission-window histograms, and NumFailedBefore(+Inf) counts every crash.
func (s Scenario) NumFailedBefore(t float64) int {
	n := 0
	for _, c := range s.CrashTime {
		if c < t {
			n++
		}
	}
	return n
}
