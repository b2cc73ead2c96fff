// Package ftsched is a fault-tolerant scheduler for precedence task graphs
// on heterogeneous platforms, reproducing Benoit, Hakem and Robert, "Fault
// Tolerant Scheduling of Precedence Task Graphs on Heterogeneous Platforms"
// (INRIA RR-6418 / IPDPS 2008).
//
// The package maps a weighted DAG of tasks onto m fully connected
// heterogeneous processors so that the application still completes if up to
// ε processors fail-stop, using active replication: every task runs on ε+1
// distinct processors. Every scheduler runs one way: ScheduleByName
// resolves its registry name and runs it under RunOptions (Schedulers lists
// the names). The built-ins share one pooled placement kernel:
//
//   - "ftsa" — the paper's main algorithm: greedy list scheduling by task
//     criticalness with earliest-finish-time processor selection; a
//     positive RunOptions.Latency turns on its deadline-checked variant;
//   - "mcftsa" — the Minimum Communications variant, cutting the message
//     count per precedence edge from (ε+1)² to ε+1 with a robust bipartite
//     matching (policy "greedy" or "bottleneck");
//   - "ftsa-ins" — FTSA's selection with HEFT-style insertion-based
//     placement;
//   - "ftbar" — the re-implemented comparison baseline of Girault et al.;
//   - "heft" — the non-fault-tolerant literature reference.
//
// MaxToleratedFailures searches the largest ε a scheduler tolerates within
// a latency budget.
//
// Every schedule carries a lower bound (latency with no failure) and an
// upper bound (latency guaranteed under any ε failures). The sim
// subpackage replays schedules under failure scenarios; the reliability
// subpackage quantifies survival probabilities under exponential failure
// laws; the workload subpackage generates the paper's random task graphs and
// the classic structured families.
//
// Quick start:
//
//	rng := rand.New(rand.NewSource(1))
//	inst, _ := ftsched.NewInstance(rng, ftsched.DefaultPaperConfig(1.0))
//	s, _ := ftsched.ScheduleByName("ftsa", inst.Graph, inst.Platform, inst.Costs, ftsched.RunOptions{Epsilon: 2})
//	fmt.Println(s.LowerBound(), s.UpperBound())
package ftsched

import (
	"math/rand"

	"ftsched/internal/dag"
	"ftsched/internal/exec"
	"ftsched/internal/platform"
	"ftsched/internal/reliability"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers" // register every built-in scheduler
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// Task-graph model (see internal/dag).
type (
	// Graph is a weighted directed acyclic task graph.
	Graph = dag.Graph
	// TaskID identifies a task of a Graph.
	TaskID = dag.TaskID
	// Edge is one precedence edge with its data volume.
	Edge = dag.Edge
)

// Platform model (see internal/platform).
type (
	// Platform is a fully connected heterogeneous processor set with a
	// unit-data delay matrix.
	Platform = platform.Platform
	// ProcID identifies a processor.
	ProcID = platform.ProcID
	// CostModel is the task × processor execution-time matrix E(t,Pk).
	CostModel = platform.CostModel
)

// Schedules (see internal/sched).
type (
	// Schedule is a complete fault-tolerant mapping with latency bounds.
	Schedule = sched.Schedule
	// Replica is one of the ε+1 copies of a task.
	Replica = sched.Replica
)

// Workload generation (see internal/workload).
type (
	// Instance bundles a graph, a platform and a cost model.
	Instance = workload.Instance
	// PaperConfig holds the generation parameters of the paper's Section 6.
	PaperConfig = workload.PaperConfig
	// RandomDAGConfig parameterizes the layered random DAG generator.
	RandomDAGConfig = workload.RandomDAGConfig
)

// Simulation (see internal/sim).
type (
	// Scenario assigns a crash time to every processor.
	Scenario = sim.Scenario
	// SimResult reports one simulated execution.
	SimResult = sim.Result
	// CommModel computes message delivery times.
	CommModel = sim.CommModel
	// ScenarioGenerator draws one failure scenario per evaluation trial.
	ScenarioGenerator = sim.ScenarioGenerator
	// ScenarioSpec is the serializable description of a scenario generator.
	ScenarioSpec = sim.ScenarioSpec
	// EvalOptions tunes a batch fault-injection evaluation.
	EvalOptions = sim.EvalOptions
	// EvalResult aggregates a batch fault-injection evaluation.
	EvalResult = sim.EvalResult
)

// Exponential models i.i.d. exponential processor lifetimes (see
// internal/reliability); its sampled counterpart is Evaluate under the
// ScenarioSpec{Kind: "exp", Lambda: λ}.
type Exponential = reliability.Exponential

// Scheduler registry (see internal/sched). Every scheduling algorithm is
// also reachable by name — the same dispatch the ftserved HTTP API, the
// campaign engine and the CLIs use — so callers can select schedulers from
// configuration without a switch of their own.
type (
	// RunOptions is the one option set of every scheduler: ε, tie-breaking
	// RNG, shared bottom levels, policy and latency budget.
	RunOptions = sched.RunOptions
	// SchedulerInfo describes one registry entry (name, aliases, policies,
	// capability flags).
	SchedulerInfo = sched.Registration
)

// ScheduleByName resolves a scheduler by registry name or alias (matched
// case-insensitively: "ftsa", "mcftsa", "ftsa-ins", "ftbar", "heft", ...),
// validates opt against its registered capabilities and runs it.
func ScheduleByName(scheduler string, g *Graph, p *Platform, cm *CostModel, opt RunOptions) (*Schedule, error) {
	return sched.Run(scheduler, g, p, cm, opt)
}

// Schedulers returns the canonical names of every registered scheduler.
func Schedulers() []string { return sched.Names() }

// LookupScheduler returns the registry entry for a scheduler name or alias.
func LookupScheduler(name string) (SchedulerInfo, bool) { return sched.LookupInfo(name) }

// MaxToleratedFailures finds, by binary search, the largest ε whose
// guaranteed latency under the named scheduler fits the budget (Section
// 4.3). Every probe runs with opt and the probed ε; a probe that fails
// returns its error.
func MaxToleratedFailures(scheduler string, g *Graph, p *Platform, cm *CostModel, opt RunOptions, budget float64) (int, *Schedule, error) {
	return sched.MaxToleratedFailures(scheduler, g, p, cm, opt, budget)
}

// NewInstance draws one full scheduling problem per the paper's generation
// parameters.
func NewInstance(rng *rand.Rand, cfg PaperConfig) (*Instance, error) {
	return workload.NewInstance(rng, cfg)
}

// NewInstanceForGraph builds platform and costs for an existing graph.
func NewInstanceForGraph(rng *rand.Rand, g *Graph, cfg PaperConfig) (*Instance, error) {
	return workload.NewInstanceForGraph(rng, g, cfg)
}

// DefaultPaperConfig returns the Figures 1-3 generation parameters with the
// given target granularity.
func DefaultPaperConfig(granularity float64) PaperConfig {
	return workload.DefaultPaperConfig(granularity)
}

// Simulate replays a schedule under a failure scenario with the paper's
// contention-free communication model.
func Simulate(s *Schedule, sc Scenario) (*SimResult, error) {
	return sim.Run(s, sc, nil)
}

// SimulateWithModel replays a schedule under a failure scenario with a
// custom communication model (one-port, bounded multi-port).
func SimulateWithModel(s *Schedule, sc Scenario, model CommModel) (*SimResult, error) {
	return sim.Run(s, sc, model)
}

// NoFailures returns the all-alive scenario for m processors.
func NoFailures(m int) Scenario { return sim.NoFailures(m) }

// CrashAtZero crashes the listed processors before they do any work.
func CrashAtZero(m int, procs ...ProcID) (Scenario, error) {
	return sim.CrashAtZero(m, procs...)
}

// UniformCrashes crashes n uniformly drawn processors at time zero.
func UniformCrashes(rng *rand.Rand, m, n int) (Scenario, error) {
	return sim.UniformCrashes(rng, m, n)
}

// SurvivalLowerBound bounds the probability a schedule tolerating epsilon
// failures survives the mission (at most ε of m processors fail).
func SurvivalLowerBound(e Exponential, m, epsilon int, mission float64) (float64, error) {
	return reliability.SurvivalLowerBound(e, m, epsilon, mission)
}

// Evaluate replays the schedule under trials failure scenarios drawn from
// gen — the batch fault-injection engine behind ftserved's /evaluate
// endpoint. The result is deterministic in opt.Seed at any worker count.
func Evaluate(s *Schedule, gen ScenarioGenerator, trials int, opt EvalOptions) (*EvalResult, error) {
	return sim.Evaluate(s, gen, trials, opt)
}

// ParseScenarioSpec reads the colon-separated flag form of a scenario spec,
// e.g. "uniform:2", "exp:0.001" or "weibull:1.5:2000".
func ParseScenarioSpec(s string) (ScenarioSpec, error) { return sim.ParseScenarioSpec(s) }

// Granularity computes g(G,P), the paper's computation/communication ratio.
func Granularity(g *Graph, cm *CostModel, p *Platform) (float64, error) {
	return platform.Granularity(g, cm, p)
}

// Concurrent execution (see internal/exec): run a schedule with real
// goroutine workers and channel links.
type (
	// TaskFunc is the user function executed by every replica of a task.
	TaskFunc = exec.Task
	// TaskPayload is the opaque data tasks exchange.
	TaskPayload = exec.Payload
	// ExecConfig tunes an execution (deterministic crash injection).
	ExecConfig = exec.Config
	// ExecReport summarizes a concurrent execution.
	ExecReport = exec.Report
)

// Execute runs the schedule with one goroutine per processor, applying the
// paper's active-replication protocol (first input wins) to the user's task
// functions. Up to ε processor crashes (ExecConfig.CrashAfter) are
// tolerated by construction.
func Execute(s *Schedule, fns []TaskFunc, cfg ExecConfig) (*ExecReport, error) {
	return exec.Run(s, fns, cfg)
}
