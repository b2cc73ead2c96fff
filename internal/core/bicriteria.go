package core

import (
	"errors"
	"fmt"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// Scheduler produces a fault-tolerant schedule for a given ε. Both FTSA and
// MCFTSA can be adapted to this signature; the bi-criteria drivers are
// parameterized on it.
type Scheduler func(epsilon int) (*sched.Schedule, error)

// FTSAScheduler adapts FTSA to the Scheduler signature, preserving the other
// options.
func FTSAScheduler(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt Options) Scheduler {
	return func(epsilon int) (*sched.Schedule, error) {
		o := opt
		o.Epsilon = epsilon
		return FTSA(g, p, cm, o)
	}
}

// MCFTSAScheduler adapts MCFTSA to the Scheduler signature.
func MCFTSAScheduler(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt MCFTSAOptions) Scheduler {
	return func(epsilon int) (*sched.Schedule, error) {
		o := opt
		o.Epsilon = epsilon
		return MCFTSA(g, p, cm, o)
	}
}

// ErrLatencyUnachievable is returned by MaxToleratedFailures when even the
// ε=0 schedule exceeds the latency budget.
var ErrLatencyUnachievable = errors.New("core: latency budget unachievable even without replication")

// MaxToleratedFailures implements the first bi-criteria driver of Section
// 4.3: given a fixed latency budget, find the maximum number of processor
// failures ε that can be tolerated while the schedule's guaranteed latency
// (upper bound M, equation 4) stays within the budget. As the paper
// suggests, a binary search on ε replaces the naive ε = 1, 2, 3, ...
// iteration; the overall cost stays polynomial. It returns the best ε and
// its schedule.
//
// Latency is not perfectly monotone in ε for a greedy heuristic, so the
// binary search (like the paper's) returns a maximal feasible ε under the
// monotonicity assumption, not a certified global maximum.
func MaxToleratedFailures(maxProcs int, latency float64, schedule Scheduler) (int, *sched.Schedule, error) {
	if latency <= 0 {
		return 0, nil, fmt.Errorf("core: non-positive latency budget %g", latency)
	}
	lo, hi := 0, maxProcs-1
	bestEps := -1
	var best *sched.Schedule
	for lo <= hi {
		mid := (lo + hi) / 2
		s, err := schedule(mid)
		if err != nil {
			// Infeasible ε (e.g. deadline failure): shrink.
			hi = mid - 1
			continue
		}
		if s.UpperBound() <= latency {
			bestEps, best = mid, s
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if bestEps < 0 {
		return 0, nil, ErrLatencyUnachievable
	}
	return bestEps, best, nil
}

// ScheduleWithDeadlines implements the second bi-criteria driver of Section
// 4.3: both the latency L and ε are fixed, and infeasibility of the
// combination is detected *during* scheduling via per-task deadlines. Each
// task ti is assigned d(ti) in reverse topological order (see
// sched.Deadlines); scheduling aborts with ErrDeadline at the first step
// where the worst selected finish time exceeds the task's deadline, letting
// the caller relax ε or L and retry.
func ScheduleWithDeadlines(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt Options, latency float64) (*sched.Schedule, error) {
	if latency <= 0 {
		return nil, fmt.Errorf("core: non-positive latency %g", latency)
	}
	dls, err := sched.Deadlines(g, cm, p, opt.Epsilon, latency)
	if err != nil {
		return nil, err
	}
	opt.Deadlines = dls
	return FTSA(g, p, cm, opt)
}
