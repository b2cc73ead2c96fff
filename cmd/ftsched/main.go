// Command ftsched schedules a task graph from JSON files (as produced by
// daggen) and reports the schedule, its latency bounds and, optionally, the
// simulated latency under crashes.
//
// Schedulers are resolved by name through the scheduler registry; run
// ftsched -list-schedulers for the names, aliases and policies this binary
// serves.
//
// Usage:
//
//	ftsched -list-schedulers
//	ftsched -dir work -algo ftsa -eps 2
//	ftsched -dir work -algo mcftsa -eps 2 -crash 2 -trials 10
//	ftsched -dir work -algo ftbar -eps 1 -v
//	ftsched -dir work -algo ftsa-ins -eps 2      # registry-only variant
//	ftsched -dir work -eps 2 -latency 5000       # deadline-checked FTSA
//	ftsched -dir work -algo mcftsa -latency 5000 # deadline-checked MC-FTSA
//	ftsched -dir work -maxeps -latency 5000      # maximize ε (FTSA) in budget
//	ftsched -dir work -compare -eps 2            # every registered scheduler
//	ftsched -dir work -load s.json -crash 1      # replay a saved schedule
//	ftsched -dir work -eps 2 -evaluate -trials 10000            # batch MC eval
//	ftsched -dir work -eps 2 -evaluate -scenario exp:0.0001     # failure law
//	ftsched -dir work -eps 2 -evaluate -scenario trace:prod.jsonl:x0.5:resample
//	ftsched -dir work -load s.json -evaluate -scenario group:4:0.001
//	ftsched -dir work -eps 1 -evaluate -policies static,reschedule # online vs offline
//	ftsched -dir work -eps 2 -evaluate -worst-case 2            # + adversarial search
//	ftsched -dir work -tune -target 0.99 -scenario exp:0.0001   # auto-tune
//	ftsched -dir work -tune -target 0.99 -scenario exp:0.0001 \
//	        -worst-case 1 -robust                               # robust tuning
//
// -evaluate runs the batch fault-injection engine (sim.Evaluate) against the
// computed or loaded schedule: -trials scenarios drawn from -scenario (any
// registered kind — run a server's GET /scenarios or see docs/SCENARIOS.md;
// e.g. uniform:N, exp:LAMBDA, weibull:SHAPE:SCALE, group:SIZE:LAMBDA,
// burst:N:LAMBDA[:SPREAD], staggered:N:HORIZON, and
// trace:FILE[:xSCALE][:resample] replaying a recorded JSONL failure trace),
// reporting the success rate with its Wilson interval, latency mean/p50/p99
// and the degradation-vs-failure-count histogram. -policies additionally
// scores mission execution policies on the SAME scenario draws: "static"
// rides the schedule out unchanged (bit-identical to the plain evaluation),
// while "reschedule" re-plans the surviving suffix of the DAG after every
// crash (internal/mission) — the printed comparison is the offline-vs-online
// gap. -worst-case K adds a deterministic adversarial search (sim.WorstCase)
// next to the Monte-Carlo mean: the most damaging K-crash pattern a budgeted
// search can find against the schedule.
//
// -tune answers "which configuration should I run?": it searches the
// scheduler-registry × ε × policy grid (internal/tune), scoring every
// candidate under -scenario with successive-halving pruning, and prints the
// Pareto frontier of (expected latency, success probability) plus the
// cheapest point meeting the -target success probability. With -worst-case K
// every surviving candidate also gets an adversarial worst-case column, and
// -robust makes the recommendation optimize that worst case instead of the
// Monte-Carlo mean.
//
// The modes are exclusive. Each reads -dir, -seed, -cpuprofile, -memprofile
// and its own flags, and refuses any other flag passed, even at its "off"
// value, instead of silently ignoring it; values are checked before output.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ftsched/internal/cli"
	"ftsched/internal/dag"
	"ftsched/internal/lazyrand"
	"ftsched/internal/mission"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers" // register every built-in scheduler
	"ftsched/internal/sim"
	"ftsched/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one parsed command line plus the stream it writes to.
type options struct {
	dir, algo, scenario, policies, policy, save, load string
	eps, crash, trials, worstCase, worstEvals         int
	seed                                              int64
	latency, target                                   float64
	evaluate, maxEps, tune, robust, compare           bool
	verbose, gantt, metrics, trace                    bool

	// Resolved by check from -policies and -worst-case.
	missionPolicies []mission.Policy
	adversary       *sim.AdversarySpec

	fs     *flag.FlagSet
	stdout io.Writer
}

// run is the whole program behind main, kept re-entrant so tests can drive
// the binary's exact code path and compare transcripts. It returns the exit
// status: 0 on success, 1 on a failed or refused run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{fs: fs, stdout: stdout}
	fs.StringVar(&o.dir, "dir", ".", "directory with graph.json, platform.json, costs.json")
	fs.StringVar(&o.algo, "algo", "ftsa", "scheduler registry name or alias (see -list-schedulers)")
	fs.IntVar(&o.eps, "eps", 1, "number of tolerated failures ε (defaults to 0 for non-fault-tolerant schedulers)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for tie-breaking and crash draws")
	fs.IntVar(&o.crash, "crash", -1, "simulate this many uniform crashes (-1: no simulation)")
	fs.IntVar(&o.trials, "trials", 1, "crash simulation trials (-crash), or batch size for -evaluate")
	fs.BoolVar(&o.evaluate, "evaluate", false, "run the batch fault-injection evaluation (sim.Evaluate) on the schedule")
	fs.StringVar(&o.scenario, "scenario", "", "evaluation scenario spec (default uniform:ε), e.g. uniform:2, exp:0.001, weibull:1.5:2000, group:4:0.001, burst:3:0.001:50, staggered:2:1000, trace:FILE[:xSCALE][:resample]")
	fs.StringVar(&o.policies, "policies", "", "comma-separated mission policies to score side by side under -evaluate (static,reschedule): static rides out failures, reschedule re-plans the surviving DAG suffix after every crash")
	fs.Float64Var(&o.latency, "latency", 0, "latency budget: deadline-checked scheduling, or the budget for -maxeps")
	fs.StringVar(&o.policy, "policy", "", "scheduler-specific policy (e.g. mcftsa: greedy|bottleneck, heft: noinsertion)")
	fs.BoolVar(&o.maxEps, "maxeps", false, "maximize ε under the -latency budget (uses FTSA)")
	fs.BoolVar(&o.tune, "tune", false, "auto-tune: search the registry × ε × policy grid for the (latency, success) Pareto frontier")
	fs.Float64Var(&o.target, "target", 0.99, "success-probability target of the -tune recommendation")
	fs.IntVar(&o.worstCase, "worst-case", -1, "adversarial search: report the most damaging K-crash pattern a budgeted search finds (-evaluate and -tune modes; -1: off)")
	fs.IntVar(&o.worstEvals, "worst-evals", 0, "adversarial search replay budget (0: default 4096; requires -worst-case)")
	fs.BoolVar(&o.robust, "robust", false, "make the -tune recommendation optimize the adversarial worst case (requires -worst-case)")
	fs.BoolVar(&o.verbose, "v", false, "print the full placement")
	fs.BoolVar(&o.gantt, "gantt", false, "render an ASCII Gantt chart")
	fs.BoolVar(&o.metrics, "metrics", false, "print schedule metrics (utilization, comm volume)")
	fs.BoolVar(&o.trace, "trace", false, "print the event trace of each crash simulation")
	fs.StringVar(&o.save, "save", "", "write the computed schedule to this JSON file")
	fs.StringVar(&o.load, "load", "", "load a schedule from this JSON file instead of computing one (-eps comes from the file)")
	fs.BoolVar(&o.compare, "compare", false, "run every registered scheduler side by side and exit")
	listScheds := fs.Bool("list-schedulers", false, "list the registered schedulers (one per line, with aliases) and exit")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ftsched: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *listScheds {
		sched.WriteSchedulerList(stdout)
		return 0
	}
	if err := cli.Profile(*cpuProf, *memProf, o.run); err != nil {
		fmt.Fprintln(stderr, "ftsched:", err)
		return 1
	}
	return 0
}

// check refuses every flag the selected mode does not read — a user who
// passes -crash with -compare thinks a simulation ran when none did — and
// every flag value the run would refuse later, so a refused run prints
// nothing. It resolves the batch modes' -trials default.
func (o *options) check() error {
	mode, own, reads := "a plain schedule", "", []string{"v", "gantt", "metrics", "algo", "eps", "latency", "policy", "save"}
	switch {
	case o.maxEps:
		mode, own, reads = "-maxeps", "maxeps", []string{"latency"}
	case o.compare:
		mode, own, reads = "-compare", "compare", []string{"eps"}
	case o.tune:
		mode, own, reads = "-tune", "tune", []string{"scenario", "trials", "target", "worst-case", "worst-evals", "robust"}
	default:
		var modes []string
		if o.load != "" {
			modes, reads = []string{"-load"}, []string{"v", "gantt", "metrics", "load"}
		}
		if o.evaluate {
			modes = append(modes, "-evaluate")
			reads = append(reads, "evaluate", "scenario", "trials", "worst-case", "worst-evals")
			if o.load == "" {
				// The policy comparison re-plans through the registry, so it
				// needs the instance flags, not a frozen schedule file.
				reads = append(reads, "policies")
			}
		} else if o.crash >= 0 {
			modes = append(modes, "-crash")
			reads = append(reads, "crash", "trials", "trace")
		}
		mode = cmp.Or(strings.Join(modes, " "), mode)
	}
	common := []string{"dir", "seed", "cpuprofile", "memprofile"}
	if err := cli.Only(o.fs, mode, own, slices.Concat(common, reads)...); err != nil {
		return err
	}
	switch {
	case o.worstCase < 0 && cli.IsSet(o.fs, "worst-evals"):
		return errors.New("-worst-evals requires -worst-case")
	case o.worstCase < 0 && o.robust:
		return errors.New("-robust requires -worst-case")
	case o.trials < 1 && slices.Contains(reads, "trials"):
		return fmt.Errorf("-trials must be >= 1, got %d", o.trials)
	case o.maxEps && o.latency <= 0:
		return errors.New("-maxeps needs a positive -latency")
	case o.tune && o.scenario == "":
		return errors.New("-tune needs -scenario (the failure law candidates are scored under), e.g. -scenario exp:0.001")
	}
	if _, err := sim.ParseScenarioSpec(o.scenario); err != nil && o.scenario != "" {
		return err
	}
	if o.policies != "" {
		for _, name := range strings.Split(o.policies, ",") {
			pol, err := mission.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			o.missionPolicies = append(o.missionPolicies, pol)
		}
	}
	if o.worstCase >= 0 {
		o.adversary = &sim.AdversarySpec{Crashes: o.worstCase, MaxEvals: o.worstEvals}
		if err := o.adversary.Validate(); err != nil {
			return err
		}
	}
	info, ok := sched.LookupInfo(o.algo)
	if !ok {
		return sched.UnknownSchedulerError(o.algo)
	}
	// A non-fault-tolerant scheduler cannot replicate; when the user did not
	// ask for a specific ε, default it to 0 instead of erroring on the
	// fault-tolerant default of 1.
	if !info.FaultTolerant && !cli.IsSet(o.fs, "eps") {
		o.eps = 0
	}
	if (o.tune || o.evaluate) && !cli.IsSet(o.fs, "trials") {
		o.trials = 1000
	}
	return nil
}

// run checks the command line, reads the instance and runs the mode.
func (o *options) run() error {
	if err := o.check(); err != nil {
		return err
	}
	g, err := readFile(o.dir, "graph.json", dag.Read)
	if err != nil {
		return err
	}
	p, err := readFile(o.dir, "platform.json", platform.Read)
	if err != nil {
		return err
	}
	cm, err := readFile(o.dir, "costs.json", platform.ReadCostModel)
	if err != nil {
		return err
	}
	rng := lazyrand.New(o.seed)
	switch {
	case o.maxEps:
		best, s, err := sched.MaxToleratedFailures("ftsa", g, p, cm, sched.RunOptions{Rng: rng}, o.latency)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "maximum tolerated failures within latency %.4g: ε = %d (guaranteed %.4g)\n",
			o.latency, best, s.UpperBound())
		return nil
	case o.compare:
		return o.runCompare(g, p, cm)
	case o.tune:
		return o.runTune(g, p, cm)
	}

	var s *sched.Schedule
	if o.load != "" {
		s, err = readFile("", o.load, func(r io.Reader) (*sched.Schedule, error) {
			return sched.ReadSchedule(r, g, p, cm)
		})
	} else {
		s, err = sched.Run(o.algo, g, p, cm, sched.RunOptions{
			Epsilon: o.eps, Rng: rng, Policy: o.policy, Latency: o.latency,
		})
	}
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("generated schedule failed validation: %w", err)
	}
	o.eps = s.Epsilon // a loaded schedule carries its own ε
	if o.save != "" {
		f, err := os.Create(o.save)
		if err == nil {
			_, err = s.WriteTo(f)
			err = cmp.Or(err, f.Close())
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(o.stdout, "saved schedule to", o.save)
	}

	fmt.Fprintf(o.stdout, "%s schedule: %d tasks on %d processors, ε=%d, pattern=%s\n",
		s.Algorithm, g.NumTasks(), p.NumProcs(), o.eps, s.CommPattern)
	fmt.Fprintf(o.stdout, "  lower bound (no failure):      %.4g\n", s.LowerBound())
	fmt.Fprintf(o.stdout, "  upper bound (ε failures):      %.4g\n", s.UpperBound())
	fmt.Fprintf(o.stdout, "  inter-processor messages:      %d\n", s.MessageCount())

	for t := 0; o.verbose && t < g.NumTasks(); t++ {
		fmt.Fprintf(o.stdout, "  task %4d:", t)
		for _, r := range s.Replicas(dag.TaskID(t)) {
			fmt.Fprintf(o.stdout, "  P%-3d[%.4g,%.4g)", r.Proc, r.StartMin, r.FinishMin)
		}
		fmt.Fprintln(o.stdout)
	}
	if o.metrics {
		m, err := s.ComputeMetrics()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "  replicas: %d (replication factor %.2f)\n", m.Replicas, m.ReplicationFactor)
		fmt.Fprintf(o.stdout, "  communication volume crossing processors: %.4g\n", m.CommVolume)
		fmt.Fprintf(o.stdout, "  utilization mean/min/max: %.1f%% / %.1f%% / %.1f%%\n",
			100*m.MeanUtilization, 100*m.MinUtilization, 100*m.MaxUtilization)
	}
	if o.gantt {
		if err := s.WriteGantt(o.stdout, sched.GanttOptions{Width: 100}); err != nil {
			return err
		}
	}
	if o.evaluate {
		return o.runEvaluate(s)
	}
	for trial := 0; o.crash >= 0 && trial < o.trials; trial++ {
		sc, err := sim.UniformCrashes(rng, p.NumProcs(), o.crash)
		if err != nil {
			return err
		}
		opts := sim.Options{}
		if o.trace {
			opts.Trace = &sim.Trace{}
		}
		res, err := sim.RunWithOptions(s, sc, opts)
		if err != nil {
			fmt.Fprintf(o.stdout, "  crash trial %d: FAILED (%v)\n", trial, err)
			continue
		}
		fmt.Fprintf(o.stdout, "  crash trial %d (%d crashes): latency %.4g\n", trial, o.crash, res.Latency)
		if o.trace {
			if err := opts.Trace.Write(o.stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// readFile opens dir/name and decodes it with read.
func readFile[T any](dir, name string, read func(io.Reader) (T, error)) (T, error) {
	var v T
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return v, err
	}
	defer f.Close()
	if v, err = read(f); err != nil {
		return v, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// runTune searches the registry × ε × policy grid for the Pareto frontier
// of (expected latency, success probability) under the given scenario and
// prints the frontier plus the recommendation for the -target success rate.
func (o *options) runTune(g *dag.Graph, p *platform.Platform, cm *platform.CostModel) error {
	sp, err := sim.ParseScenarioSpec(o.scenario)
	if err != nil {
		return err
	}
	res, err := tune.Run(tune.Spec{
		Graph:     g,
		Platform:  p,
		Costs:     cm,
		Scenario:  sp,
		Trials:    o.trials,
		Target:    o.target,
		Seed:      o.seed,
		WorstCase: o.adversary,
		Robust:    o.robust,
	})
	if err != nil {
		return err
	}
	return tune.WriteASCII(o.stdout, res)
}

// runEvaluate runs the batch fault-injection engine on the schedule and
// prints the aggregate, then the adversarial search and the mission policy
// comparison when asked for, all on the one resolved scenario.
func (o *options) runEvaluate(s *sched.Schedule) error {
	if o.scenario == "" {
		// The natural default mirrors the paper's crash experiments: ε
		// uniform crashes at time zero (the guarantee region's boundary).
		o.scenario = fmt.Sprintf("uniform:%d", o.eps)
	}
	sp, err := sim.ParseScenarioSpec(o.scenario)
	if err != nil {
		return err
	}
	gen, err := sp.Generator()
	if err != nil {
		return err
	}
	res, err := sim.Evaluate(s, gen, o.trials, sim.EvalOptions{Seed: o.seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "  evaluation: %d trials of scenario %s (seed %d)\n", res.Trials, res.Generator, res.Seed)
	fmt.Fprintf(o.stdout, "    success rate: %.4f  (95%% Wilson [%.4f, %.4f])\n",
		res.SuccessRate, res.SuccessLow, res.SuccessHigh)
	if res.Successes > 0 {
		fmt.Fprintf(o.stdout, "    latency over %d successes: mean %.4g  p50 %.4g  p99 %.4g  max %.4g\n",
			res.Successes, res.Latency.Mean, res.Latency.P50, res.Latency.P99, res.Latency.Max)
	}
	fmt.Fprintf(o.stdout, "    %9s %8s %8s %13s %12s\n", "failures", "trials", "success", "mean latency", "degradation")
	for _, b := range res.ByFailures {
		fmt.Fprintf(o.stdout, "    %9d %8d %7.1f%% %13.4g %+11.1f%%\n",
			b.Failures, b.Trials, 100*b.SuccessRate, b.MeanLatency, 100*b.MeanDegradation)
	}
	if o.adversary != nil {
		if err := o.runWorstCase(s); err != nil {
			return err
		}
	}
	if o.missionPolicies != nil {
		return o.runPolicyComparison(s, sp, gen)
	}
	return nil
}

// runWorstCase runs the budgeted adversarial search against the schedule and
// prints the most damaging pattern found next to the Monte-Carlo aggregate.
func (o *options) runWorstCase(s *sched.Schedule) error {
	wc, err := sim.WorstCase(s, *o.adversary, sim.Options{})
	if err != nil {
		return err
	}
	certainty := "greedy search"
	if wc.Exhaustive {
		certainty = "exhaustive over crash-at-zero patterns"
	}
	fmt.Fprintf(o.stdout, "  worst case (%s, %d evals, %s):\n", wc.Spec, wc.Evals, certainty)
	if wc.Missed {
		fmt.Fprintf(o.stdout, "    MISSED — the pattern starves an exit task\n")
	} else {
		fmt.Fprintf(o.stdout, "    latency %.4g (%+.1f%% vs no-failure baseline)\n",
			wc.Latency, 100*wc.Degradation)
	}
	fmt.Fprintf(o.stdout, "    pattern:")
	for _, c := range wc.Crashes {
		fmt.Fprintf(o.stdout, "  P%d@%.4g", c.Proc, c.Time)
	}
	fmt.Fprintln(o.stdout)
	return nil
}

// runPolicyComparison scores the requested mission policies on the same
// scenario draws the plain evaluation used, printing offline (static) and
// online (re-scheduling) execution side by side.
func (o *options) runPolicyComparison(s *sched.Schedule, sp sim.ScenarioSpec, gen sim.ScenarioGenerator) error {
	spec := mission.Spec{
		Graph:       s.Graph,
		Platform:    s.Platform,
		Costs:       s.Costs,
		Scheduler:   o.algo,
		Epsilon:     o.eps,
		SchedPolicy: o.policy,
		Seed:        o.seed,
	}
	fmt.Fprintf(o.stdout, "  mission policies on the same draws (%s, %d trials):\n", sp.String(), o.trials)
	fmt.Fprintf(o.stdout, "    %-11s %8s %19s %13s %10s\n", "policy", "success", "95% Wilson", "mean latency", "p99")
	for _, pol := range o.missionPolicies {
		spec.Policy = pol
		res, err := mission.EvaluatePolicy(spec, gen, o.trials, sim.EvalOptions{Seed: o.seed})
		if err != nil {
			return fmt.Errorf("policy %s: %w", pol, err)
		}
		fmt.Fprintf(o.stdout, "    %-11s %7.1f%% [%7.4f, %7.4f] %13.4g %10.4g\n",
			pol, 100*res.SuccessRate, res.SuccessLow, res.SuccessHigh,
			res.Latency.Mean, res.Latency.P99)
	}
	return nil
}

// runCompare schedules the instance with every registered scheduler
// (non-fault-tolerant ones at ε=0 as references) and prints a comparison.
// Each row gets its own RNG seeded from -seed, so a row reproduces the
// matching single-scheduler run exactly and registering a new scheduler
// cannot shift the others' tie-breaking streams.
func (o *options) runCompare(g *dag.Graph, p *platform.Platform, cm *platform.CostModel) error {
	type row struct {
		name string
		s    *sched.Schedule
		took time.Duration
	}
	var rows []row
	for _, r := range sched.Registrations() {
		name := r.Name()
		runEps := o.eps
		if !r.FaultTolerant {
			runEps = 0
			name += "(ε=0)"
		}
		start := time.Now()
		s, err := sched.Run(r.Name(), g, p, cm, sched.RunOptions{
			Epsilon: runEps, Rng: lazyrand.New(o.seed),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, row{name: name, s: s, took: time.Since(start)})
	}
	fmt.Fprintf(o.stdout, "%d tasks, %d edges on %d processors, ε=%d\n\n", g.NumTasks(), g.NumEdges(), p.NumProcs(), o.eps)
	fmt.Fprintf(o.stdout, "%-10s %12s %12s %10s %10s %12s\n", "algorithm", "lower bound", "upper bound", "messages", "quality", "time")
	for _, r := range rows {
		q, err := r.s.QualityRatio()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "%-10s %12.4g %12.4g %10d %9.2fx %12s\n",
			r.name, r.s.LowerBound(), r.s.UpperBound(), r.s.MessageCount(), q, r.took.Round(time.Microsecond))
	}
	return nil
}
