// Command ftexp runs the experiment layer: parallel campaigns over the
// (scheduler, ε, granularity, family, instance) grid — the paper's figures
// are presets of it — plus three studies that measure what a cell does not
// carry.
//
// Campaign mode (a sharded worker pool with deterministic per-cell seeding,
// so any -parallel value yields identical aggregates):
//
//	ftexp -campaign paper                      # Figure 1-3 sweeps in one run
//	ftexp -campaign paper -parallel 8          # same output, 8 workers
//	ftexp -campaign paper -format csv          # machine-readable aggregate
//	ftexp -campaign paper -checkpoint c.jsonl  # stream cells to a JSONL file
//	ftexp -campaign paper -checkpoint c.jsonl -resume   # continue after ^C
//	ftexp -campaign custom -schedulers FTSA,MC-FTSA -eps 1,2 \
//	      -gran 0.2:2:0.2 -families random,fft -instances 30
//	ftexp -campaign custom -schedulers ftsa,ftsa-ins -eps 1 -instances 10
//	ftexp -campaign families                   # X5: the structured families
//	ftexp -list-schedulers                     # registry names usable above
//
// The -evaluate flag adds a failure-scenario dimension to a custom campaign:
// each cell runs a Monte-Carlo fault-injection batch (-trials scenarios via
// sim.Evaluate) instead of the single-crash replay, and the aggregate gains
// success-rate and p99 columns. Any registered scenario kind works,
// including trace:FILE[:xSCALE][:resample] replay of recorded failure
// traces:
//
//	ftexp -campaign custom -eps 2 -instances 20 -gran 1 \
//	      -evaluate uniform:2,exp:0.001,group:4:0.001 -trials 500
//	ftexp -campaign custom -eps 2 -instances 20 -gran 1 \
//	      -evaluate trace:prod.jsonl:resample -trials 500
//
// The tune campaign searches the scheduler registry instead of sweeping it:
// for every (family, granularity) point it runs the auto-tuner
// (internal/tune) over the registry × -eps × policy grid under one scoring
// scenario, and emits the (latency, success) Pareto frontier plus the
// recommendation for the -target success probability. -worst-case K adds a
// budgeted adversarial search column per candidate, and -robust makes the
// recommendation optimize that worst case:
//
//	ftexp -campaign tune -gran 0.5,1,2 -eps 1,2,5 -procs 20 \
//	      -evaluate exp:0.0002 -trials 1000 -target 0.99
//	ftexp -campaign tune -families random,fft -gran 1 \
//	      -evaluate uniform:2 -format csv
//	ftexp -campaign tune -gran 1 -eps 1,2 -evaluate exp:0.0002 \
//	      -worst-case 1 -robust
//
// The paper's figures are campaign presets projected onto the paper's panels
// and legends, so they take -parallel, -checkpoint/-resume and -progress
// like any campaign; every preset honours -instances, -gran and -seed:
//
//	ftexp -fig 1                 # Figure 1 (ε=1, m=20): bounds, crash, overhead panels
//	ftexp -fig 3 -instances 20   # Figure 3 with a reduced batch for quick runs
//	ftexp -fig 2 -format csv     # CSV instead of the ASCII tables
//	ftexp -fig 4 -format svg -out plots   # figure4a.svg, figure4b.svg
//
// Studies (single-threaded; wall time, strict-matched starvation and
// comm-model replay are not per-cell metrics):
//
//	ftexp -table 1               # Table 1 running-time comparison
//	ftexp -table 1 -maxtasks 2000
//	ftexp -x4 -instances 10      # X4: MC-FTSA strict starvation
//	ftexp -x6 -format csv        # X6: one-port / multi-port replay
//
// Output goes to stdout; each panel is prefixed with a '#' title line, so the
// whole output is valid gnuplot/CSV input after splitting on blank lines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"ftsched/internal/cli"
	"ftsched/internal/expt"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers" // register every built-in scheduler
	"ftsched/internal/sim"
	"ftsched/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one parsed command line plus the streams it writes to.
type options struct {
	campaign              string
	parallel              int
	checkpoint            string
	resume, progress      bool
	schedulers, eps, gran string
	families              string
	instances, procs      int
	tasks, evaluate       string
	trials                int
	target                float64
	worstCase             int
	robust                bool
	fig, table            int
	x4, x6                bool
	seed                  int64
	format, out           string
	maxTasks              int

	fs             *flag.FlagSet
	stdout, stderr io.Writer
}

// errUsage means no mode was selected: print the flag summary, exit 2.
var errUsage = errors.New("no mode selected")

// run is the whole program behind main, kept re-entrant so tests can drive
// the binary's exact code path and compare transcripts. It returns the exit
// status: 0 on success, 1 on a failed or rejected run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{fs: fs, stdout: stdout, stderr: stderr}
	fs.StringVar(&o.campaign, "campaign", "", "run a campaign: 'paper' (Figure 1-3 sweeps), 'families' (X5: structured families), 'custom' (grid from flags) or 'tune'")
	fs.IntVar(&o.parallel, "parallel", 0, "campaign worker count (0 = GOMAXPROCS)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "campaign JSONL checkpoint file")
	fs.BoolVar(&o.resume, "resume", false, "resume the campaign from -checkpoint")
	fs.BoolVar(&o.progress, "progress", false, "report campaign progress on stderr")
	fs.StringVar(&o.schedulers, "schedulers", "FTSA,MC-FTSA,FTBAR", "campaign scheduler list (registry names or aliases; see -list-schedulers)")
	listScheds := fs.Bool("list-schedulers", false, "list the registered schedulers (one per line, with aliases) and exit")
	fs.StringVar(&o.eps, "eps", "1,2,5", "campaign ε list")
	fs.StringVar(&o.gran, "gran", "0.2:2:0.2", "granularities: 'lo:hi:step' or comma list (presets and figures: the paper's sweep unless set)")
	fs.StringVar(&o.families, "families", "random", "campaign families (see -campaign custom -families help)")
	fs.IntVar(&o.instances, "instances", 60, "instances (graphs) per grid point; presets, figures, -x4 and -x6 keep their own default unless set")
	fs.IntVar(&o.procs, "procs", 20, "campaign platform size")
	fs.StringVar(&o.tasks, "tasks", "100:150", "campaign random-family task range 'min:max'")
	fs.StringVar(&o.evaluate, "evaluate", "", "campaign scenario dimension: comma list of specs (uniform:N, exp:LAMBDA, weibull:SHAPE:SCALE, group:SIZE:LAMBDA, burst:N:LAMBDA[:SPREAD], staggered:N:HORIZON, trace:FILE[:xSCALE][:resample]); exactly one spec in -campaign tune")
	fs.IntVar(&o.trials, "trials", 0, "fault-injection trials per cell/candidate (requires -evaluate; default 1000)")
	fs.Float64Var(&o.target, "target", 0.99, "success-probability target of the -campaign tune recommendation")
	fs.IntVar(&o.worstCase, "worst-case", -1, "-campaign tune: adversarial worst-case column, searching the most damaging K-crash pattern per candidate (-1: off)")
	fs.BoolVar(&o.robust, "robust", false, "-campaign tune: recommend by adversarial worst case instead of the Monte-Carlo mean (requires -worst-case)")

	fs.IntVar(&o.fig, "fig", 0, "paper figure to regenerate (1-4), as a campaign preset")
	fs.IntVar(&o.table, "table", 0, "paper table to regenerate (1)")
	fs.BoolVar(&o.x4, "x4", false, "run experiment X4 (MC-FTSA strict starvation, finding F1)")
	fs.BoolVar(&o.x6, "x6", false, "run experiment X6 (one-port/multi-port comm models, §7 conjecture)")
	fs.Int64Var(&o.seed, "seed", 1, "master seed; campaign cells derive deterministic per-cell seeds from it")
	fs.StringVar(&o.format, "format", "ascii", "output format: ascii; csv (campaigns, figures, -x4, -x6); json (campaigns); svg (campaigns, figures)")
	fs.StringVar(&o.out, "out", ".", "output directory (only used by -format svg)")
	fs.IntVar(&o.maxTasks, "maxtasks", 5000, "skip -table 1 rows above this task count")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ftexp: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *listScheds {
		sched.WriteSchedulerList(stdout)
		return 0
	}
	switch err := cli.Profile(*cpuProf, *memProf, o.dispatch); {
	case errors.Is(err, errUsage):
		fs.Usage()
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "ftexp:", err)
		return 1
	}
	return 0
}

// dispatch selects the mode. Each mode lists the flags it reads (only), so
// passing two modes at once is rejected by whichever comes first here.
func (o *options) dispatch() error {
	switch {
	case o.campaign == "tune":
		return o.runTuneCampaign()
	case o.campaign != "" || o.isSet("fig"):
		return o.runCampaign()
	case o.isSet("table"):
		return o.runTable1()
	case o.x4:
		cfg := expt.DefaultStarvationConfig()
		cfg.Seed = o.seed
		if o.isSet("instances") {
			cfg.GraphsPerPoint = o.instances
		}
		return o.runStudy("-x4", func() (*expt.Figure, error) { return expt.RunStarvation(cfg) })
	case o.x6:
		cfg := expt.DefaultCommModelsConfig()
		cfg.Seed = o.seed
		if o.isSet("instances") {
			cfg.GraphsPerPoint = o.instances
		}
		return o.runStudy("-x6", func() (*expt.Figure, error) { return expt.RunCommModels(cfg) })
	}
	return errUsage
}

func (o *options) isSet(name string) bool { return cli.IsSet(o.fs, name) }

// Flag groups the modes read, for only.
var (
	commonFlags = []string{"seed", "format", "out", "cpuprofile", "memprofile"}
	engineFlags = []string{"parallel", "checkpoint", "resume", "progress"}
	gridFlags   = []string{"eps", "gran", "families", "procs", "tasks", "evaluate", "trials"}
)

// only rejects every flag passed on the command line that the selected mode
// ("-fig 2", "-campaign tune", ...) does not read — its own flag, the common
// ones and reads — instead of silently ignoring a sweep the user thinks ran.
func (o *options) only(mode string, reads ...string) error {
	return cli.Only(o.fs, mode, strings.TrimPrefix(strings.Fields(mode)[0], "-"), slices.Concat(commonFlags, reads)...)
}

// pickWriter resolves -format among the writers a mode has, before anything
// runs: a bad format fails in milliseconds, not after hours of compute.
func pickWriter[W any](o *options, mode string, writers map[string]W) (W, error) {
	w, ok := writers[o.format]
	if !ok {
		return w, fmt.Errorf("%s supports -format %s, got %q", mode,
			strings.Join(slices.Sorted(maps.Keys(writers)), ", "), o.format)
	}
	return w, nil
}

type figureWriter = func(io.Writer, *expt.Figure) error

var figureWriters = map[string]figureWriter{"ascii": expt.WriteASCII, "csv": expt.WriteCSV}

// runStudy is -x4 and -x6: one single-threaded study emitted as a figure.
func (o *options) runStudy(mode string, study func() (*expt.Figure, error)) error {
	if err := o.only(mode, "instances"); err != nil {
		return err
	}
	write, err := pickWriter(o, mode, figureWriters)
	if err != nil {
		return err
	}
	f, err := study()
	if err != nil {
		return err
	}
	return write(o.stdout, f)
}

func (o *options) runTable1() error {
	if o.table != 1 {
		return fmt.Errorf("-table %d: the paper has one table, -table 1", o.table)
	}
	if err := o.only("-table 1", "maxtasks"); err != nil {
		return err
	}
	if _, err := pickWriter(o, "-table 1", map[string]bool{"ascii": true}); err != nil {
		return err
	}
	cfg := expt.DefaultTable1Config()
	cfg.Seed = o.seed
	cfg.TaskCounts = slices.DeleteFunc(cfg.TaskCounts, func(v int) bool { return v > o.maxTasks })
	rows, err := expt.RunTable1(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.stdout, "# Table 1: running times in seconds (this host)")
	return expt.WriteTable1(o.stdout, rows)
}

// splitList splits a comma list, trimming blanks and dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseEpsilons(s string) ([]int, error) {
	var out []int
	for _, e := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(e))
		if err != nil {
			return nil, fmt.Errorf("bad -eps entry %q: %w", e, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runTuneCampaign is the -campaign tune mode: for every (family,
// granularity) workload point it materializes one campaign-seeded instance
// (expt.BuildInstance, index 0) and runs the auto-tuner over the registry ×
// -eps × policy grid, emitting one frontier section per point. The -eps list
// doubles as the tuner's ε ladder and -evaluate carries the single scoring
// scenario; -parallel sets the tuner's candidate-level worker pool.
// -worst-case adds the adversarial column, and -robust flips the
// recommendation to optimize it. The candidate grid comes from the scheduler
// registry, so the flags shaping a campaign's own grid do not apply.
func (o *options) runTuneCampaign() error {
	const mode = "-campaign tune"
	if err := o.only(mode, slices.Concat(gridFlags,
		[]string{"parallel", "target", "worst-case", "robust"})...); err != nil {
		return err
	}
	write, err := pickWriter(o, mode, map[string]func(io.Writer, *tune.Result) error{
		"ascii": tune.WriteASCII, "csv": tune.WriteCSV})
	if err != nil {
		return err
	}
	var worstCase *sim.AdversarySpec
	if o.worstCase >= 0 {
		worstCase = &sim.AdversarySpec{Crashes: o.worstCase}
	} else if o.robust {
		return fmt.Errorf("-robust requires -worst-case")
	}
	if o.evaluate == "" {
		return fmt.Errorf("-campaign tune needs -evaluate SPEC (the scenario candidates are scored under)")
	}
	if strings.Contains(o.evaluate, ",") {
		return fmt.Errorf("-campaign tune scores every candidate under one scenario; pass exactly one -evaluate spec")
	}
	sp, err := sim.ParseScenarioSpec(o.evaluate)
	if err != nil {
		return err
	}
	ladder, err := parseEpsilons(o.eps)
	if err != nil {
		return err
	}
	gran, err := parseGranularities(o.gran)
	if err != nil {
		return err
	}
	tasksMin, tasksMax, err := parseRange(o.tasks)
	if err != nil {
		return fmt.Errorf("bad -tasks: %w", err)
	}
	trials := o.trials
	if !o.isSet("trials") {
		trials = 1000
	}
	first := true
	for _, fam := range splitList(o.families) {
		for _, g := range gran {
			inst, err := expt.BuildInstance(fam, g, o.procs, tasksMin, tasksMax, 0, o.seed)
			if err != nil {
				return err
			}
			res, err := tune.Run(tune.Spec{
				Graph:     inst.Graph,
				Platform:  inst.Platform,
				Costs:     inst.Costs,
				Epsilons:  ladder,
				Scenario:  sp,
				Trials:    trials,
				Target:    o.target,
				Seed:      o.seed,
				Workers:   o.parallel,
				WorstCase: worstCase,
				Robust:    o.robust,
			})
			if err != nil {
				return fmt.Errorf("tune family=%s gran=%g: %w", fam, g, err)
			}
			if !first {
				fmt.Fprintln(o.stdout)
			}
			first = false
			fmt.Fprintf(o.stdout, "# tune family=%s gran=%g procs=%d tasks=%d scenario=%s\n",
				fam, g, o.procs, inst.Graph.NumTasks(), res.Scenario)
			if err := write(o.stdout, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildCampaign turns the flags into a Campaign spec. A preset — "paper",
// "families" or a figure — fixes its grid, so its aggregate stays comparable
// across hosts: only -instances, -gran and -seed move it, and any other grid
// flag alongside it is rejected rather than silently ignored. "custom"
// builds the whole grid from flags.
func (o *options) buildCampaign(mode string) (expt.Campaign, error) {
	var c expt.Campaign
	var err error
	switch {
	case o.campaign == "custom":
		return o.customCampaign(mode)
	case o.campaign == "paper":
		c = expt.PaperCampaign()
	case o.campaign == "families":
		c = expt.FamiliesCampaign()
	case o.campaign == "":
		if c, err = expt.FigureCampaign(o.fig); err != nil {
			return c, fmt.Errorf("-fig %d: %w", o.fig, err)
		}
	default:
		return c, fmt.Errorf("unknown -campaign %q (want paper, families, custom or tune)", o.campaign)
	}
	if err := o.only(mode, slices.Concat(engineFlags, []string{"instances", "gran"})...); err != nil {
		return c, err
	}
	c.Seed = o.seed
	if o.isSet("instances") {
		c.Instances = o.instances
	}
	if o.isSet("gran") {
		c.Granularities, err = parseGranularities(o.gran)
	}
	return c, err
}

func (o *options) customCampaign(mode string) (expt.Campaign, error) {
	c := expt.Campaign{Name: "custom", Instances: o.instances, Procs: o.procs, Seed: o.seed}
	err := o.only(mode, slices.Concat(engineFlags, gridFlags, []string{"schedulers", "instances"})...)
	if err != nil {
		return c, err
	}
	for _, s := range splitList(o.schedulers) {
		c.Schedulers = append(c.Schedulers, expt.SchedulerID(s))
	}
	if c.Epsilons, err = parseEpsilons(o.eps); err != nil {
		return c, err
	}
	if c.Granularities, err = parseGranularities(o.gran); err != nil {
		return c, err
	}
	c.Families = splitList(o.families)
	if c.TasksMin, c.TasksMax, err = parseRange(o.tasks); err != nil {
		return c, fmt.Errorf("bad -tasks: %w", err)
	}
	if o.isSet("trials") && o.evaluate == "" {
		return c, fmt.Errorf("-trials only applies with -evaluate; pass a scenario list as well")
	}
	if o.evaluate != "" {
		c.Scenarios = splitList(o.evaluate)
		// Default only when -trials was not passed: an explicit bad value
		// must reach Validate's error, not silently become 1000.
		c.EvalTrials = o.trials
		if !o.isSet("trials") {
			c.EvalTrials = 1000
		}
	}
	return c, nil
}

// parseGranularities accepts 'lo:hi:step' or a comma-separated list.
func parseGranularities(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -gran %q: want lo:hi:step", s)
		}
		var lo, hi, step float64
		for i, dst := range []*float64{&lo, &hi, &step} {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
			if err != nil {
				return nil, fmt.Errorf("bad -gran %q: %w", s, err)
			}
			*dst = v
		}
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("bad -gran %q: need step > 0 and hi >= lo", s)
		}
		var out []float64
		// Index-based stepping avoids drifting past hi on repeated adds.
		for i := 0; ; i++ {
			g := lo + float64(i)*step
			if g > hi+1e-9 {
				break
			}
			out = append(out, g)
		}
		return out, nil
	}
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -gran entry %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRange(s string) (int, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%q: want min:max", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, err
	}
	hi, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// runCampaign runs a campaign — a preset, a custom grid or a paper figure —
// on the engine and emits it.
func (o *options) runCampaign() error {
	mode, emitter := "-campaign "+o.campaign, o.campaignEmitter
	if o.campaign == "" {
		mode, emitter = fmt.Sprintf("-fig %d", o.fig), o.figureEmitter
	}
	c, err := o.buildCampaign(mode)
	if err != nil {
		return err
	}
	emit, err := emitter(mode)
	if err != nil {
		return err
	}
	eng := expt.EngineOptions{Workers: o.parallel, Checkpoint: o.checkpoint, Resume: o.resume}
	if o.progress {
		eng.Progress = func(done, total int) {
			fmt.Fprintf(o.stderr, "\rftexp: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(o.stderr)
			}
		}
	}
	res, err := expt.RunCampaign(c, eng)
	if err != nil {
		return err
	}
	return emit(res)
}

// campaignEmitter writes a campaign as its aggregate table; SVG is the one
// format that writes files instead of stdout (one per family × ε × metric),
// marked by a nil writer.
func (o *options) campaignEmitter(mode string) (func(*expt.CampaignResult) error, error) {
	write, err := pickWriter(o, mode, map[string]func(io.Writer, *expt.CampaignResult) error{
		"ascii": expt.WriteCampaignASCII, "csv": expt.WriteCampaignCSV, "json": expt.WriteCampaignJSON, "svg": nil})
	if err != nil {
		return nil, err
	}
	return func(res *expt.CampaignResult) error {
		if write != nil {
			return write(o.stdout, res)
		}
		for _, fam := range res.Campaign.Families {
			for _, eps := range res.Campaign.Epsilons {
				for _, metric := range []expt.CampaignMetric{expt.MetricLower, expt.MetricCrash, expt.MetricOverhead} {
					f, err := expt.CampaignFigure(res, fam, eps, metric)
					if err != nil {
						return err
					}
					if err := o.writeSVG(fmt.Sprintf("campaign-%s-eps%d-%s.svg", fam, eps, metric), f); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}, nil
}

// figureEmitter writes a figure campaign as the paper's panels: "# Figure
// N(a)" sections on stdout, or figureNa.svg, figureNb.svg, ... under -out.
func (o *options) figureEmitter(mode string) (func(*expt.CampaignResult) error, error) {
	write, err := pickWriter(o, mode, map[string]figureWriter{
		"ascii": expt.WriteASCII, "csv": expt.WriteCSV, "svg": nil})
	if err != nil {
		return nil, err
	}
	return func(res *expt.CampaignResult) error {
		panels, err := expt.FigurePanels(o.fig, res)
		if err != nil {
			return err
		}
		for i, p := range panels {
			letter := string(rune('a' + i))
			if write == nil {
				if err := o.writeSVG(fmt.Sprintf("figure%d%s.svg", o.fig, letter), p); err != nil {
					return err
				}
				continue
			}
			if i > 0 {
				fmt.Fprintln(o.stdout)
			}
			fmt.Fprintf(o.stdout, "# Figure %d(%s)\n", o.fig, letter)
			if err := write(o.stdout, p); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// writeSVG renders one figure into a file under -out and reports the path.
func (o *options) writeSVG(name string, f *expt.Figure) error {
	path := filepath.Join(o.out, name)
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := expt.WriteSVG(out, f); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintln(o.stdout, "wrote", path)
	return nil
}
