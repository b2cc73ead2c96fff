package expt

import (
	"fmt"

	"ftsched/internal/lazyrand"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/stats"
	"ftsched/internal/workload"
)

// Experiment X6 (ours): the paper's conclusion conjectures that under
// contention-limited communication models (one-port, bounded multi-port)
// MC-FTSA should beat the other schedulers, "since it already accounts for
// reduced communications". This experiment replays the three schedulers'
// schedules under those models and measures the conjecture.

// CommModelsConfig parameterizes X6.
type CommModelsConfig struct {
	Epsilon        int
	Procs          int
	Granularities  []float64
	GraphsPerPoint int
	TasksMin       int
	TasksMax       int
	Seed           int64
	// Ports is the multi-port degree for the bounded model (K=1 is the
	// one-port model and is always included).
	Ports int
}

// DefaultCommModelsConfig returns the X6 setup.
func DefaultCommModelsConfig() CommModelsConfig {
	return CommModelsConfig{
		Epsilon:        2,
		Procs:          20,
		Granularities:  PaperGranularities(),
		GraphsPerPoint: 20,
		TasksMin:       100,
		TasksMax:       150,
		Seed:           1,
		Ports:          4,
	}
}

// RunCommModels executes X6: failure-free replays of FTSA, MC-FTSA and
// FTBAR schedules under the contention-free, one-port and K-port models.
func RunCommModels(cfg CommModelsConfig) (*Figure, error) {
	if cfg.Epsilon < 0 || cfg.Epsilon+1 > cfg.Procs {
		return nil, fmt.Errorf("expt: ε=%d needs more processors than %d", cfg.Epsilon, cfg.Procs)
	}
	if cfg.Ports < 2 {
		return nil, fmt.Errorf("expt: multi-port degree %d must be >= 2", cfg.Ports)
	}
	if len(cfg.Granularities) == 0 || cfg.GraphsPerPoint < 1 {
		return nil, fmt.Errorf("expt: empty X6 sweep")
	}
	rng := lazyrand.New(cfg.Seed)
	fig := &Figure{
		Title:  fmt.Sprintf("X6: latency under contention-limited links, ε=%d, m=%d", cfg.Epsilon, cfg.Procs),
		XLabel: "Granularity", YLabel: "Normalized Latency",
	}
	get := func(name string) *stats.Series {
		for _, s := range fig.Series {
			if s.Name == name {
				return s
			}
		}
		s := stats.NewSeries(name)
		fig.Series = append(fig.Series, s)
		return s
	}
	for _, g := range cfg.Granularities {
		for i := 0; i < cfg.GraphsPerPoint; i++ {
			inst, err := workload.NewInstance(rng, paperWorkload(g, cfg.Procs, cfg.TasksMin, cfg.TasksMax))
			if err != nil {
				return nil, err
			}
			norm := normalizer(inst)
			algos := AllSchedulers()
			schedules := make([]*sched.Schedule, len(algos))
			for k, a := range algos {
				schedules[k], err = sched.Run(string(a), inst.Graph, inst.Platform, inst.Costs,
					sched.RunOptions{Epsilon: cfg.Epsilon, Rng: rng})
				if err != nil {
					return nil, err
				}
			}
			multi, err := sim.NewBoundedMultiPort(cfg.Procs, cfg.Ports)
			if err != nil {
				return nil, err
			}
			models := []struct {
				tag   string
				model sim.CommModel
			}{
				{"free", sim.ContentionFree{}},
				{"1-port", sim.NewOnePort(cfg.Procs)},
				{fmt.Sprintf("%d-port", cfg.Ports), multi},
			}
			for _, mm := range models {
				for k, a := range algos {
					mm.model.Reset(cfg.Procs)
					res, err := sim.Run(schedules[k], sim.NoFailures(cfg.Procs), mm.model)
					if err != nil {
						return nil, fmt.Errorf("expt: %s under %s: %w", a, mm.tag, err)
					}
					get(fmt.Sprintf("%s (%s)", a, mm.tag)).At(g).Add(res.Latency / norm)
				}
			}
		}
	}
	return fig, nil
}
