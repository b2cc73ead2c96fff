package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// Instance bundles one complete scheduling problem: a task graph, the
// platform it runs on and the execution-cost matrix. This is the unit the
// experiment harness generates 60 of per figure point.
type Instance struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Costs    *platform.CostModel
}

// PaperConfig gathers the generation parameters of Section 6 of the paper.
type PaperConfig struct {
	// DAG is the random-graph configuration (task count, volumes, shape).
	DAG RandomDAGConfig
	// Procs is the platform size (20 in Figures 1-3, 5 in Figure 4, 50 in
	// Table 1).
	Procs int
	// MinDelay and MaxDelay bound the uniformly drawn unit message delay of
	// the links; the paper uses [0.5, 1].
	MinDelay, MaxDelay float64
	// MinCost and MaxCost bound the uniformly drawn raw execution times
	// before granularity scaling. The paper does not state the raw range
	// (only the achieved granularity matters after scaling); [10, 100]
	// gives a 10x heterogeneity spread.
	MinCost, MaxCost float64
	// Granularity is the target g(G,P); the whole cost matrix is rescaled
	// so that the generated instance hits it exactly. Zero disables
	// scaling.
	Granularity float64
}

// DefaultPaperConfig returns the Figure 1-3 configuration with the given
// target granularity.
func DefaultPaperConfig(granularity float64) PaperConfig {
	return PaperConfig{
		DAG:         DefaultRandomDAGConfig(),
		Procs:       20,
		MinDelay:    0.5,
		MaxDelay:    1.0,
		MinCost:     10,
		MaxCost:     100,
		Granularity: granularity,
	}
}

// Validate checks the configuration.
func (c PaperConfig) Validate() error {
	if err := c.DAG.Validate(); err != nil {
		return err
	}
	if c.Procs < 1 {
		return fmt.Errorf("workload: need >=1 processor, got %d", c.Procs)
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("workload: invalid delay range [%g,%g]", c.MinDelay, c.MaxDelay)
	}
	if c.MinCost < 0 || c.MaxCost < c.MinCost {
		return fmt.Errorf("workload: invalid cost range [%g,%g]", c.MinCost, c.MaxCost)
	}
	if !(c.Granularity >= 0) || math.IsInf(c.Granularity, 0) {
		return fmt.Errorf("workload: target granularity %g is not finite and non-negative", c.Granularity)
	}
	return nil
}

// NewInstance draws one full problem instance per the configuration,
// rescaling execution costs to hit the target granularity when set.
func NewInstance(rng *rand.Rand, cfg PaperConfig) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := RandomDAG(rng, cfg.DAG)
	if err != nil {
		return nil, err
	}
	return instantiate(rng, g, cfg)
}

// NewInstanceForGraph builds platform and costs for an existing graph using
// the same parameters; used by the structured-family examples.
func NewInstanceForGraph(rng *rand.Rand, g *dag.Graph, cfg PaperConfig) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return instantiate(rng, g, cfg)
}

func instantiate(rng *rand.Rand, g *dag.Graph, cfg PaperConfig) (*Instance, error) {
	p, err := platform.NewRandom(rng, cfg.Procs, cfg.MinDelay, cfg.MaxDelay)
	if err != nil {
		return nil, err
	}
	cm, err := platform.NewRandomCostModel(rng, g.NumTasks(), cfg.Procs, cfg.MinCost, cfg.MaxCost)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Graph: g, Platform: p, Costs: cm}
	if cfg.Granularity > 0 && g.NumEdges() > 0 {
		if err := inst.ScaleToGranularity(cfg.Granularity); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// ScaleToGranularity rescales the execution-cost matrix so that
// g(G,P) equals the target exactly. Granularity is (Σ slowest computation) /
// (Σ slowest communication) and communications are untouched, so multiplying
// all costs by target/current is exact.
func (in *Instance) ScaleToGranularity(target float64) error {
	if target <= 0 {
		return fmt.Errorf("workload: target granularity must be positive, got %g", target)
	}
	cur, err := platform.Granularity(in.Graph, in.Costs, in.Platform)
	if err != nil {
		return err
	}
	if cur == 0 {
		return fmt.Errorf("workload: cannot scale zero-cost instance")
	}
	return in.Costs.Scale(target / cur)
}
