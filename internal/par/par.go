// Package par is the one bounded worker loop behind the batch engines: the
// Monte-Carlo trials of sim.EvaluateScenarios, the campaign engine's
// cells, the tuner's candidates, the load generator's requests and the
// coordinator's per-shard sub-batches all run through For.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves the worker count For uses for n indices: a value <= 0
// means runtime.GOMAXPROCS(0), and the result is clamped to [1, n] (1 when
// n < 1).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls fn(w, i) once for every index i in [0, n) on Workers(workers, n)
// goroutines and returns when every started call has returned. Indices are
// handed out in ascending order; w in [0, Workers(workers, n)) names the
// calling worker, so a caller can keep per-worker state in a slice. A single
// worker runs inline on the caller's goroutine.
//
// Once a call has failed, no worker that observes the failure starts a new
// index, and For returns the error of the lowest failing index. Every index
// below a started one has started too, so for a deterministic fn that error
// does not depend on the worker count or the goroutine schedule.
func For(workers, n int, fn func(w, i int) error) error {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		lowest = n
		lowErr error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < lowest {
						lowest, lowErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return lowErr
}
