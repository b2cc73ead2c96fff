package expt

import (
	"fmt"

	"ftsched/internal/lazyrand"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
	"ftsched/internal/workload"
)

// StarvationConfig parameterizes experiment X4 (ours): quantifying finding
// F1 of EXPERIMENTS.md — under strict matched-only communication, how often
// does a *single* processor crash starve an MC-FTSA schedule, as a function
// of graph size (and hence depth)?
type StarvationConfig struct {
	Epsilon        int
	Procs          int
	TaskCounts     []int
	GraphsPerPoint int
	Seed           int64
}

// DefaultStarvationConfig returns the X4 setup: ε=2 on 10 processors,
// graph sizes from 10 to 150 tasks.
func DefaultStarvationConfig() StarvationConfig {
	return StarvationConfig{
		Epsilon:        2,
		Procs:          10,
		TaskCounts:     []int{10, 20, 40, 80, 150},
		GraphsPerPoint: 20,
		Seed:           1,
	}
}

// RunStarvation measures, per graph size:
//
//   - the fraction of single-crash scenarios that starve the schedule under
//     strict matched semantics (no replica of some exit task can run);
//   - the fraction of single-crash scenarios where the degraded-mode
//     (rerouting) latency exceeds the schedule's upper bound — the
//     corollary of F1 that the MC-FTSA "guarantee" is soft.
//
// FTSA is measured alongside as a control: its full communication pattern
// must show zero starvation and zero bound violations.
func RunStarvation(cfg StarvationConfig) (*Figure, error) {
	if cfg.Epsilon < 1 || cfg.Epsilon+1 > cfg.Procs {
		return nil, fmt.Errorf("expt: starvation needs 1 <= ε < m, got ε=%d m=%d", cfg.Epsilon, cfg.Procs)
	}
	if cfg.GraphsPerPoint < 1 || len(cfg.TaskCounts) == 0 {
		return nil, fmt.Errorf("expt: empty starvation sweep")
	}
	rng := lazyrand.New(cfg.Seed)
	fig := &Figure{
		Title:  fmt.Sprintf("X4: single-crash starvation under strict matched semantics, ε=%d, m=%d", cfg.Epsilon, cfg.Procs),
		XLabel: "Tasks", YLabel: "Rate (%)",
	}
	strict := stats.NewSeries("MC-FTSA strict starvation")
	soft := stats.NewSeries("MC-FTSA degraded bound violations")
	control := stats.NewSeries("FTSA starvation (control)")
	fig.Series = []*stats.Series{strict, soft, control}

	for _, v := range cfg.TaskCounts {
		for i := 0; i < cfg.GraphsPerPoint; i++ {
			inst, err := workload.NewInstance(rng, paperWorkload(1, cfg.Procs, v, v))
			if err != nil {
				return nil, err
			}
			opt := sched.RunOptions{Epsilon: cfg.Epsilon, Rng: rng}
			mc, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, opt)
			if err != nil {
				return nil, err
			}
			ftsa, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, opt)
			if err != nil {
				return nil, err
			}
			starved, violated, ctrl := 0, 0, 0
			for j := 0; j < cfg.Procs; j++ {
				sc, err := sim.CrashAtZero(cfg.Procs, platform.ProcID(j))
				if err != nil {
					return nil, err
				}
				if _, err := sim.RunWithOptions(mc, sc, sim.Options{StrictMatched: true}); err != nil {
					starved++
				}
				res, err := sim.Run(mc, sc, nil)
				if err != nil {
					// Degraded mode cannot starve with a single crash and
					// ε >= 1; treat a failure here as a bug.
					return nil, fmt.Errorf("expt: degraded MC-FTSA failed: %w", err)
				}
				if res.Latency > mc.UpperBound()+1e-7 {
					violated++
				}
				if _, err := sim.Run(ftsa, sc, nil); err != nil {
					ctrl++
				}
			}
			x := float64(v)
			strict.At(x).Add(100 * float64(starved) / float64(cfg.Procs))
			soft.At(x).Add(100 * float64(violated) / float64(cfg.Procs))
			control.At(x).Add(100 * float64(ctrl) / float64(cfg.Procs))
		}
	}
	return fig, nil
}
