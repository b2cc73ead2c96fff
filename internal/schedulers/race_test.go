package schedulers

import (
	"fmt"
	"sync"
	"testing"

	"ftsched/internal/sched"
)

// TestConcurrentDispatch hammers the registry and the kernel's pooled
// placement state from many goroutines at once: every scheduler × several ε
// values, looked up and run concurrently, with results cross-checked against
// a serial pass. Run under -race (CI does), this is the proof that
//
//   - registry lookups are safe against each other (the serving layer
//     resolves per request), and
//   - the kernel's sync.Pool recycling of boards and scratch never leaks
//     state between concurrent runs — every concurrent schedule is
//     byte-equal in its bounds to the serial one.
func TestConcurrentDispatch(t *testing.T) {
	inst := goldenInstance(t)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs

	type job struct {
		name string
		opt  sched.RunOptions
	}
	var jobs []job
	for _, info := range sched.Registrations() {
		epsilons := []int{0}
		if info.FaultTolerant {
			epsilons = []int{0, 1, 2}
		}
		for _, eps := range epsilons {
			jobs = append(jobs, job{name: info.Name(), opt: sched.RunOptions{Epsilon: eps}})
		}
	}

	// Serial reference bounds (deterministic: no RNG in any job).
	type bounds struct{ lower, upper float64 }
	want := make(map[string]bounds, len(jobs))
	key := func(j job) string { return fmt.Sprintf("%s/eps%d", j.name, j.opt.Epsilon) }
	for _, j := range jobs {
		s, err := sched.Run(j.name, g, p, cm, j.opt)
		if err != nil {
			t.Fatalf("%s: %v", key(j), err)
		}
		want[key(j)] = bounds{s.LowerBound(), s.UpperBound()}
	}

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(jobs))
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				if _, ok := sched.LookupInfo(j.name); !ok {
					errs <- fmt.Errorf("%s: lookup failed", j.name)
					return
				}
				s, err := sched.Run(j.name, g, p, cm, j.opt)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", key(j), err)
					return
				}
				if got := (bounds{s.LowerBound(), s.UpperBound()}); got != want[key(j)] {
					errs <- fmt.Errorf("%s: concurrent bounds %+v != serial %+v — pooled state leaked between runs",
						key(j), got, want[key(j)])
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
