package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{-1, 1000, min(procs, 1000)},
		{0, 1000, min(procs, 1000)},
		{3, 1000, 3},
		{64, 5, 5},
		{7, 0, 1},
		{0, 0, 1},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				nw := Workers(workers, n)
				counts := make([]atomic.Int32, n)
				var badWorker atomic.Int32
				err := For(workers, n, func(w, i int) error {
					if w < 0 || w >= nw {
						badWorker.Store(int32(w) + 1)
					}
					counts[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatalf("For: %v", err)
				}
				if b := badWorker.Load(); b != 0 {
					t.Fatalf("worker index %d outside [0, %d)", b-1, nw)
				}
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// The error returned is the lowest failing index's, even when a higher index
// fails first.
func TestForReturnsLowestFailingIndex(t *testing.T) {
	errSlow, errFast := errors.New("index 3"), errors.New("index 11")
	fastFailed := make(chan struct{})
	err := For(4, 100, func(_, i int) error {
		switch i {
		case 3:
			<-fastFailed
			return errSlow
		case 11:
			close(fastFailed)
			return errFast
		}
		return nil
	})
	if err != errSlow {
		t.Fatalf("For returned %v, want %v", err, errSlow)
	}
}

// Both indices in flight fail, so both workers have observed a failure
// before either could start index 2: it must never run.
func TestForStartsNothingAfterFailure(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	ran := make([]atomic.Bool, 10)
	err := For(2, len(ran), func(_, i int) error {
		ran[i].Store(true)
		if i < 2 {
			started.Done()
			started.Wait()
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 0" {
		t.Fatalf("For returned %v, want index 0's error", err)
	}
	for i := 2; i < len(ran); i++ {
		if ran[i].Load() {
			t.Fatalf("index %d started after both workers failed", i)
		}
	}
}

func TestForInlineStopsAtFirstError(t *testing.T) {
	var calls int
	err := For(1, 10, func(w, i int) error {
		calls++
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls != 5 {
		t.Fatalf("err=%v calls=%d, want an error after 5 calls", err, calls)
	}
}
