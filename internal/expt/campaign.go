package expt

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ftsched/internal/dag"
	"ftsched/internal/lazyrand"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers" // register every built-in scheduler
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// SchedulerID names one scheduler of a campaign's grid dimension. Any
// scheduler-registry name or alias is accepted (matched case-insensitively),
// so a registry-only variant like "ftsa-ins" can join a sweep without any
// change to this package.
type SchedulerID string

// The paper's scheduler grid dimension, under its display spellings (which
// the registry resolves as aliases).
const (
	SchedFTSA   SchedulerID = "FTSA"
	SchedMCFTSA SchedulerID = "MC-FTSA"
	SchedFTBAR  SchedulerID = "FTBAR"
)

// AllSchedulers returns the paper's scheduler dimension in canonical order:
// the three fault-tolerant schedulers Figures 1-3 compare. The registry may
// hold more (HEFT, ftsa-ins); campaigns opt into those explicitly.
func AllSchedulers() []SchedulerID {
	return []SchedulerID{SchedFTSA, SchedMCFTSA, SchedFTBAR}
}

// Campaign is the declarative spec of one experiment campaign: the cross
// product of its dimension slices is the grid of cells the engine executes.
// A cell is one (scheduler, ε, granularity, family, instance) tuple; every
// cell is seeded deterministically from Seed and its own coordinates, so the
// result of a campaign is a pure function of the spec — independent of
// worker count, scheduling order, or interruption/resume boundaries.
type Campaign struct {
	// Name labels the campaign in checkpoints and reports.
	Name string `json:"name"`
	// Schedulers is the algorithm dimension (default: all three).
	Schedulers []SchedulerID `json:"schedulers"`
	// Epsilons is the ε dimension (the paper sweeps 1, 2, 5).
	Epsilons []int `json:"epsilons"`
	// Granularities is the x-axis sweep (the paper uses 0.2..2.0).
	Granularities []float64 `json:"granularities"`
	// Families lists workload families: "random" (the paper's layered
	// random DAGs) or any name in CampaignFamilies.
	Families []string `json:"families"`
	// Instances is the number of independent instances per grid point (the
	// paper averages 60 graphs per point).
	Instances int `json:"instances"`
	// Procs is the platform size.
	Procs int `json:"procs"`
	// TasksMin and TasksMax bound the random-family task count.
	TasksMin int `json:"tasks_min"`
	TasksMax int `json:"tasks_max"`
	// Seed is the base seed every per-cell seed derives from.
	Seed int64 `json:"seed"`
	// Scenarios, when non-empty, adds a failure-scenario dimension to the
	// grid: each cell runs the batch fault-injection engine (sim.Evaluate,
	// EvalTrials scenarios per cell) instead of the single-crash replay,
	// recording success rate and latency tail alongside the usual metrics.
	// Entries are sim.ParseScenarioSpec strings ("uniform:2", "exp:0.001",
	// "weibull:1.5:2000", ...). Both fields are omitted from the JSON
	// encoding when unset, so legacy campaign fingerprints — and therefore
	// their checkpoints — stay valid.
	Scenarios []string `json:"scenarios,omitempty"`
	// EvalTrials is the per-cell trial count of the evaluation dimension
	// (required exactly when Scenarios is set).
	EvalTrials int `json:"eval_trials,omitempty"`
}

// Cell identifies one point of a campaign grid. Index is the cell's rank in
// the canonical enumeration order (families, then granularity, then
// instance, then ε, then scenario, then scheduler — innermost last), which
// is also the order of the engine's results. All cells sharing one problem
// instance are consecutive, so the engine keeps each prepared instance only
// while its cells run.
type Cell struct {
	Index       int         `json:"i"`
	Family      string      `json:"family"`
	Epsilon     int         `json:"eps"`
	Granularity float64     `json:"g"`
	Instance    int         `json:"inst"`
	Scheduler   SchedulerID `json:"sched"`
	// Scenario is the cell's failure-scenario spec; empty in campaigns
	// without the evaluation dimension.
	Scenario string `json:"scn,omitempty"`
}

// sameInstance reports whether two cells share their problem instance: the
// (family, granularity, instance) coordinates every prepare seed derives
// from.
func (a Cell) sameInstance(b Cell) bool {
	return a.Family == b.Family && a.Granularity == b.Granularity && a.Instance == b.Instance
}

// CellResult is the measured outcome of one cell. Latencies are normalized
// per instance like the paper's figures (see normalizer). Overhead is the
// paper's FTSA*-relative percentage: 100·(crash − faultfree)/faultfree.
//
// In evaluation campaigns (Campaign.Scenarios set) Crash and Overhead are
// derived from the mean latency of the cell's successful trials, and the
// success-rate/tail fields below are populated (their zero values are
// omitted from checkpoints, so legacy lines parse unchanged).
type CellResult struct {
	Cell
	Tasks     int     `json:"tasks"`
	Edges     int     `json:"edges"`
	Lower     float64 `json:"lb"`
	Upper     float64 `json:"ub"`
	FaultFree float64 `json:"ff"`
	Crash     float64 `json:"crash"`
	Overhead  float64 `json:"ovh"`
	Messages  int     `json:"msgs"`
	// SuccessRate is the fraction of the cell's EvalTrials scenarios the
	// schedule survived; EvalP99 the normalized p99 latency of successes.
	SuccessRate float64 `json:"sr,omitempty"`
	EvalP99     float64 `json:"p99,omitempty"`
}

// campaignFamilies maps structured-family names to graph builders; "random"
// is handled separately because its graph is drawn per instance seed.
var campaignFamilies = []struct {
	name  string
	build func() (*dag.Graph, error)
}{
	{"gauss", func() (*dag.Graph, error) { return workload.GaussianElimination(16, 100) }},
	{"fft", func() (*dag.Graph, error) { return workload.FFT(6, 100) }},
	{"cholesky", func() (*dag.Graph, error) { return workload.Cholesky(8, 100) }},
	{"lu", func() (*dag.Graph, error) { return workload.LU(6, 100) }},
	{"stencil", func() (*dag.Graph, error) { return workload.Stencil(12, 12, 100) }},
	{"forkjoin", func() (*dag.Graph, error) { return workload.ForkJoin(10, 5, 100) }},
	{"pipeline", func() (*dag.Graph, error) { return workload.Pipeline(10, 4, 100) }},
	{"intree", func() (*dag.Graph, error) { return workload.InTree(2, 7, 100) }},
}

// CampaignFamilies returns the recognized family names: "random" first, then
// the structured families.
func CampaignFamilies() []string {
	out := []string{"random"}
	for _, f := range campaignFamilies {
		out = append(out, f.name)
	}
	return out
}

func familyBuilder(name string) (func() (*dag.Graph, error), bool) {
	for _, f := range campaignFamilies {
		if f.name == name {
			return f.build, true
		}
	}
	return nil, false
}

// PaperCampaign returns the preset reproducing the Figure 1-3 sweeps in one
// campaign: all three schedulers × ε ∈ {1,2,5} × granularity 0.2..2.0 × 60
// random instances on 20 processors.
func PaperCampaign() Campaign {
	return Campaign{
		Name:          "paper-figures-1-3",
		Schedulers:    AllSchedulers(),
		Epsilons:      []int{1, 2, 5},
		Granularities: PaperGranularities(),
		Families:      []string{"random"},
		Instances:     60,
		Procs:         20,
		TasksMin:      100,
		TasksMax:      150,
		Seed:          1,
	}
}

// FamiliesCampaign returns the preset of experiment X5 (ours): the three
// schedulers on every structured task-graph family — one instance each at
// granularity 1, ε = 2 on 16 processors — complementing the paper's purely
// random workloads.
func FamiliesCampaign() Campaign {
	c := PaperCampaign()
	c.Name = "families"
	c.Epsilons = []int{2}
	c.Granularities = []float64{1}
	c.Families = CampaignFamilies()[1:]
	c.Instances = 1
	c.Procs = 16
	return c
}

// Validate checks the campaign spec. Duplicate dimension values are
// rejected: duplicated cells would accumulate the identical sample twice
// and silently deflate the confidence intervals.
func (c Campaign) Validate() error {
	if len(c.Schedulers) == 0 {
		return fmt.Errorf("expt: campaign has no schedulers")
	}
	// Scheduler names resolve through the registry, so the campaign grid
	// accepts exactly what the rest of the system serves; duplicates are
	// detected on canonical names, catching a name and its alias together.
	seenSched := make(map[string]bool, len(c.Schedulers))
	for _, s := range c.Schedulers {
		info, ok := sched.LookupInfo(string(s))
		if !ok {
			return fmt.Errorf("expt: %w", sched.UnknownSchedulerError(string(s)))
		}
		if seenSched[info.Name()] {
			return fmt.Errorf("expt: duplicate scheduler %q", s)
		}
		seenSched[info.Name()] = true
		if !info.FaultTolerant {
			for _, e := range c.Epsilons {
				if e != 0 {
					return fmt.Errorf("expt: scheduler %q is not fault-tolerant; it cannot sweep ε=%d", s, e)
				}
			}
		}
	}
	if len(c.Epsilons) == 0 {
		return fmt.Errorf("expt: campaign has no ε values")
	}
	seenEps := make(map[int]bool, len(c.Epsilons))
	for _, e := range c.Epsilons {
		if e < 0 || e+1 > c.Procs {
			return fmt.Errorf("expt: ε=%d needs more processors than %d", e, c.Procs)
		}
		if seenEps[e] {
			return fmt.Errorf("expt: duplicate ε=%d", e)
		}
		seenEps[e] = true
	}
	if len(c.Granularities) == 0 {
		return fmt.Errorf("expt: campaign has no granularities")
	}
	seenGran := make(map[float64]bool, len(c.Granularities))
	for _, g := range c.Granularities {
		if !(g > 0) || math.IsInf(g, 0) {
			return fmt.Errorf("expt: granularity %g is not positive and finite", g)
		}
		if seenGran[g] {
			return fmt.Errorf("expt: duplicate granularity %g", g)
		}
		seenGran[g] = true
	}
	if len(c.Families) == 0 {
		return fmt.Errorf("expt: campaign has no families")
	}
	seenFam := make(map[string]bool, len(c.Families))
	for _, f := range c.Families {
		if seenFam[f] {
			return fmt.Errorf("expt: duplicate family %q", f)
		}
		seenFam[f] = true
		if f == "random" {
			continue
		}
		if _, ok := familyBuilder(f); !ok {
			return fmt.Errorf("expt: unknown family %q (known: %v)", f, CampaignFamilies())
		}
	}
	if c.Instances < 1 {
		return fmt.Errorf("expt: need at least one instance per cell, got %d", c.Instances)
	}
	if c.Procs < 1 {
		return fmt.Errorf("expt: need at least one processor, got %d", c.Procs)
	}
	if c.TasksMin < 1 || c.TasksMax < c.TasksMin {
		return fmt.Errorf("expt: invalid task range [%d,%d]", c.TasksMin, c.TasksMax)
	}
	if len(c.Scenarios) == 0 && c.EvalTrials != 0 {
		return fmt.Errorf("expt: eval_trials=%d without scenarios; add a scenario dimension or drop it", c.EvalTrials)
	}
	if len(c.Scenarios) > 0 {
		if c.EvalTrials < 1 {
			return fmt.Errorf("expt: scenario dimension needs eval_trials >= 1, got %d", c.EvalTrials)
		}
		seenScn := make(map[string]bool, len(c.Scenarios))
		for _, raw := range c.Scenarios {
			sp, err := sim.ParseScenarioSpec(raw)
			if err != nil {
				return fmt.Errorf("expt: %w", err)
			}
			gen, err := sp.Generator()
			if err != nil {
				return fmt.Errorf("expt: %w", err)
			}
			if err := gen.Check(c.Procs); err != nil {
				return fmt.Errorf("expt: scenario %q: %w", raw, err)
			}
			// Duplicates are detected on the canonical rendering, catching
			// "exp:0.001" against "exponential:1e-3".
			if key := sp.String(); seenScn[key] {
				return fmt.Errorf("expt: duplicate scenario %q", raw)
			} else {
				seenScn[key] = true
			}
		}
	}
	return nil
}

// numScenarios is the size of the scenario dimension (1 when absent: the
// classic single-crash replay).
func (c Campaign) numScenarios() int {
	if len(c.Scenarios) == 0 {
		return 1
	}
	return len(c.Scenarios)
}

// NumCells returns the size of the campaign grid.
func (c Campaign) NumCells() int {
	return len(c.Families) * len(c.Epsilons) * len(c.Granularities) * c.Instances *
		len(c.Schedulers) * c.numScenarios()
}

// Cells enumerates the grid in canonical order.
func (c Campaign) Cells() []Cell {
	scenarios := c.Scenarios
	if len(scenarios) == 0 {
		scenarios = []string{""}
	}
	cells := make([]Cell, 0, c.NumCells())
	i := 0
	for _, fam := range c.Families {
		for _, g := range c.Granularities {
			for inst := 0; inst < c.Instances; inst++ {
				for _, eps := range c.Epsilons {
					for _, scn := range scenarios {
						for _, s := range c.Schedulers {
							cells = append(cells, Cell{
								Index: i, Family: fam, Epsilon: eps,
								Granularity: g, Instance: inst, Scheduler: s,
								Scenario: scn,
							})
							i++
						}
					}
				}
			}
		}
	}
	return cells
}

// derive hashes the base seed and a list of coordinate strings into a
// 63-bit stream seed — sim.DeriveSeed, the stable FNV-1a discipline shared
// with the auto-tuner.
func derive(base int64, parts ...string) int64 {
	return sim.DeriveSeed(base, parts...)
}

func gstr(g float64) string { return strconv.FormatFloat(g, 'g', -1, 64) }

// instanceSeed depends only on (family, granularity, instance): all
// schedulers and ε values of a grid point see the same problem instance,
// mirroring the paper's shared-workload comparison.
func (c Campaign) instanceSeed(cell Cell) int64 {
	return derive(c.Seed, "inst", cell.Family, gstr(cell.Granularity), strconv.Itoa(cell.Instance))
}

// schedSeed feeds the scheduler's tie-breaking RNG; it additionally depends
// on the scheduler and ε so independent cells never share RNG streams.
func (c Campaign) schedSeed(cell Cell) int64 {
	return derive(c.Seed, "sched", cell.Family, gstr(cell.Granularity),
		strconv.Itoa(cell.Instance), string(cell.Scheduler), strconv.Itoa(cell.Epsilon))
}

// faultFreeSeed feeds the ε=0 FTSA baseline run of a cell.
func (c Campaign) faultFreeSeed(cell Cell) int64 {
	return derive(c.Seed, "ff", cell.Family, gstr(cell.Granularity), strconv.Itoa(cell.Instance))
}

// crashSeed draws the cell's crash scenario. It is shared by all schedulers
// of one (instance, ε) pair, so crash latencies compare like against like.
func (c Campaign) crashSeed(cell Cell) int64 {
	return derive(c.Seed, "crash", cell.Family, gstr(cell.Granularity),
		strconv.Itoa(cell.Instance), strconv.Itoa(cell.Epsilon))
}

// evalSeed feeds the evaluation dimension's per-trial scenario draws. Like
// crashSeed it excludes the scheduler, so every scheduler of one
// (instance, ε, scenario) point faces the identical failure sample.
func (c Campaign) evalSeed(cell Cell) int64 {
	return derive(c.Seed, "eval", cell.Family, gstr(cell.Granularity),
		strconv.Itoa(cell.Instance), strconv.Itoa(cell.Epsilon), cell.Scenario)
}

// paperWorkload is the one workload definition of the experiment layer: the
// paper's random-instance parameters (workload.DefaultPaperConfig) at the
// given granularity, platform size and task-count range.
func paperWorkload(granularity float64, procs, tasksMin, tasksMax int) workload.PaperConfig {
	cfg := workload.DefaultPaperConfig(granularity)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = tasksMin, tasksMax
	return cfg
}

// reseeded returns rng restarted at seed: the stream rand.New(rand.NewSource(
// seed)) would produce, without allocating a new 4.9 KB source. A cell draws
// from four such streams one after the other, never from two at once, so
// the engine's workers each own a single generator and pass it down.
func reseeded(rng *rand.Rand, seed int64) *rand.Rand {
	rng.Seed(seed)
	return rng
}

// newRng returns a generator for reseeded; its initial stream is never read.
func newRng() *rand.Rand { return lazyrand.New(0) }

// instance materializes the cell's problem instance from its deterministic
// seed.
func (c Campaign) instance(cell Cell, rng *rand.Rand) (*workload.Instance, error) {
	reseeded(rng, c.instanceSeed(cell))
	wcfg := paperWorkload(cell.Granularity, c.Procs, c.TasksMin, c.TasksMax)
	if cell.Family == "random" {
		return workload.NewInstance(rng, wcfg)
	}
	build, ok := familyBuilder(cell.Family)
	if !ok {
		return nil, fmt.Errorf("expt: unknown family %q", cell.Family)
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	return workload.NewInstanceForGraph(rng, g, wcfg)
}

// BuildInstance materializes one campaign-style workload instance outside a
// campaign grid — the construction Campaign.instance uses, with the same
// instance-seed derivation, so the instance at coordinates (family,
// granularity, index) under a given base seed is identical whether a
// campaign cell or a standalone caller (ftexp's tune-campaign mode) builds
// it. The family must be "random" or one of CampaignFamilies.
func BuildInstance(family string, granularity float64, procs, tasksMin, tasksMax, instance int, seed int64) (*workload.Instance, error) {
	if family != "random" {
		if _, ok := familyBuilder(family); !ok {
			return nil, fmt.Errorf("expt: unknown family %q (known: %v)", family, CampaignFamilies())
		}
	}
	if !(granularity > 0) || math.IsInf(granularity, 0) {
		return nil, fmt.Errorf("expt: granularity %g is not positive and finite", granularity)
	}
	if procs < 1 {
		return nil, fmt.Errorf("expt: need at least one processor, got %d", procs)
	}
	if tasksMin < 1 || tasksMax < tasksMin {
		return nil, fmt.Errorf("expt: invalid task range [%d,%d]", tasksMin, tasksMax)
	}
	if instance < 0 {
		return nil, fmt.Errorf("expt: negative instance index %d", instance)
	}
	c := Campaign{Procs: procs, TasksMin: tasksMin, TasksMax: tasksMax, Seed: seed}
	return c.instance(Cell{Family: family, Granularity: granularity, Instance: instance}, newRng())
}

// prepared bundles everything about a cell that is independent of its
// scheduler and ε: the instance itself, its normalizer, the shared static
// bottom levels and the fault-free FTSA baseline. All of it derives from
// seeds that exclude the scheduler and ε coordinates, so the engine prepares
// one value per (family, granularity, instance) point instead of recomputing
// it for every scheduler × ε cell.
type prepared struct {
	inst      *workload.Instance
	norm      float64
	bl        []float64
	ffLatency float64
}

// prepare materializes the scheduler-independent part of a cell.
func (c Campaign) prepare(cell Cell, rng *rand.Rand) (*prepared, error) {
	inst, err := c.instance(cell, rng)
	if err != nil {
		return nil, fmt.Errorf("expt: cell %d instance: %w", cell.Index, err)
	}
	norm := normalizer(inst)
	if norm <= 0 {
		return nil, fmt.Errorf("expt: cell %d has degenerate normalizer", cell.Index)
	}
	bl, err := sched.AvgBottomLevels(inst.Graph, inst.Costs, inst.Platform)
	if err != nil {
		return nil, err
	}
	ff, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs,
		sched.RunOptions{Epsilon: 0, Rng: reseeded(rng, c.faultFreeSeed(cell)), BottomLevels: bl})
	if err != nil {
		return nil, fmt.Errorf("expt: cell %d fault-free baseline: %w", cell.Index, err)
	}
	return &prepared{inst: inst, norm: norm, bl: bl, ffLatency: ff.LowerBound()}, nil
}

// RunCell executes one cell from scratch: materialize the instance, run the
// cell's scheduler plus the fault-free FTSA baseline (sharing one
// bottom-level computation), and replay the schedule under the cell's crash
// scenario. It is a pure function of (campaign spec, cell coordinates),
// which is what makes the engine's parallelism and resume invisible in the
// results. The engine prepares each instance once and calls runPrepared for
// each of its cells on any worker; the result is identical either way.
func (c Campaign) RunCell(cell Cell) (CellResult, error) {
	rng := newRng()
	p, err := c.prepare(cell, rng)
	if err != nil {
		return CellResult{Cell: cell}, err
	}
	return c.runPrepared(cell, p, rng)
}

// runPrepared runs the scheduler-and-ε-specific part of a cell against a
// prepared instance, drawing from rng reseeded per use.
func (c Campaign) runPrepared(cell Cell, p *prepared, rng *rand.Rand) (CellResult, error) {
	res := CellResult{Cell: cell}
	inst := p.inst

	// The cell's scheduler resolves through the registry — the same
	// dispatch the serving layer and the CLIs use — with the prepared
	// instance's shared bottom levels.
	s, err := sched.Run(string(cell.Scheduler), inst.Graph, inst.Platform, inst.Costs,
		sched.RunOptions{Epsilon: cell.Epsilon, Rng: reseeded(rng, c.schedSeed(cell)), BottomLevels: p.bl})
	if err != nil {
		return res, fmt.Errorf("expt: cell %d %s: %w", cell.Index, cell.Scheduler, err)
	}

	res.Tasks = inst.Graph.NumTasks()
	res.Edges = inst.Graph.NumEdges()
	res.Lower = s.LowerBound() / p.norm
	res.Upper = s.UpperBound() / p.norm
	res.FaultFree = p.ffLatency / p.norm
	res.Messages = s.MessageCount()

	if cell.Scenario != "" {
		// Evaluation dimension: a Monte-Carlo batch instead of one replay.
		sp, err := sim.ParseScenarioSpec(cell.Scenario)
		if err != nil {
			return res, fmt.Errorf("expt: cell %d: %w", cell.Index, err)
		}
		gen, err := sp.Generator()
		if err != nil {
			return res, fmt.Errorf("expt: cell %d: %w", cell.Index, err)
		}
		// Workers: 1 — the engine's parallelism axis is the cell grid; the
		// result is worker-count independent either way.
		eval, err := sim.Evaluate(s, gen, c.EvalTrials, sim.EvalOptions{
			Seed: c.evalSeed(cell), Workers: 1,
		})
		if err != nil {
			return res, fmt.Errorf("expt: cell %d evaluation: %w", cell.Index, err)
		}
		res.SuccessRate = eval.SuccessRate
		if eval.Successes > 0 {
			res.Crash = eval.Latency.Mean / p.norm
			res.EvalP99 = eval.Latency.P99 / p.norm
			res.Overhead = 100 * (eval.Latency.Mean - p.ffLatency) / p.ffLatency
		}
		return res, nil
	}

	scenario, err := sim.UniformCrashes(reseeded(rng, c.crashSeed(cell)), c.Procs, cell.Epsilon)
	if err != nil {
		return res, err
	}
	crash, err := sim.Run(s, scenario, nil)
	if err != nil {
		return res, fmt.Errorf("expt: cell %d crash replay: %w", cell.Index, err)
	}
	res.Crash = crash.Latency / p.norm
	res.Overhead = 100 * (crash.Latency - p.ffLatency) / p.ffLatency
	return res, nil
}
