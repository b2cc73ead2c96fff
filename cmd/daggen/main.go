// Command daggen generates scheduling workloads as JSON files: a task graph,
// a platform and an execution-cost matrix, using the paper's generation
// parameters by default.
//
// Usage:
//
//	daggen -out work/                    # paper-style random instance
//	daggen -tasks 500 -procs 50 -g 0.8   # custom size and granularity
//	daggen -family gauss -n 8            # structured family instead
//
// Families: random (default), gnp, chain, forkjoin, intree, outtree, gauss,
// fft, stencil, cholesky, lu, pipeline.
//
// Exit status: 0 on success, 1 when generating or writing fails, 2 on a
// flag error. Nothing is written unless every flag is valid.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"ftsched/internal/dag"
	"ftsched/internal/lazyrand"
	"ftsched/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind main, kept re-entrant so tests can drive
// the binary's exact code path. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daggen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out    = fs.String("out", ".", "output directory (graph.json, platform.json, costs.json)")
		family = fs.String("family", "random", "graph family")
		tasks  = fs.Int("tasks", 0, "task count (random family; 0 = paper range [100,150])")
		n      = fs.Int("n", 8, "size parameter for structured families")
		procs  = fs.Int("procs", 20, "processor count")
		gran   = fs.Float64("g", 1.0, "target granularity")
		vol    = fs.Float64("vol", 100, "edge volume for structured families")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg := workload.DefaultPaperConfig(*gran)
	cfg.Procs = *procs
	err := cfg.Validate()
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *tasks < 0:
		err = fmt.Errorf("-tasks must be >= 0, got %d", *tasks)
	case !(*vol >= 0) || math.IsInf(*vol, 0):
		err = fmt.Errorf("-vol must be finite and >= 0, got %g", *vol)
	}
	if err != nil {
		fmt.Fprintln(stderr, "daggen:", err)
		return 2
	}

	rng := lazyrand.New(*seed)
	g, err := buildGraph(rng, *family, *tasks, *n, *vol)
	var inst *workload.Instance
	if err == nil {
		inst, err = workload.NewInstanceForGraph(rng, g, cfg)
	}
	if err == nil {
		err = writeAll(*out, inst)
	}
	if err != nil {
		fmt.Fprintln(stderr, "daggen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "daggen: wrote %s (%d tasks, %d edges, %d procs, g=%.2f)\n",
		*out, g.NumTasks(), g.NumEdges(), *procs, *gran)
	return 0
}

func buildGraph(rng *rand.Rand, family string, tasks, n int, vol float64) (*dag.Graph, error) {
	switch family {
	case "random":
		cfg := workload.DefaultRandomDAGConfig()
		if tasks > 0 {
			cfg.MinTasks, cfg.MaxTasks = tasks, tasks
		}
		return workload.RandomDAG(rng, cfg)
	case "gnp":
		if tasks == 0 {
			tasks = 100
		}
		return workload.ErdosRenyiDAG(rng, tasks, 0.1, 50, 150)
	case "chain":
		return workload.Chain(n, vol)
	case "forkjoin":
		return workload.ForkJoin(n, 3, vol)
	case "intree":
		return workload.InTree(2, n, vol)
	case "outtree":
		return workload.OutTree(2, n, vol)
	case "gauss":
		return workload.GaussianElimination(n, vol)
	case "fft":
		return workload.FFT(n, vol)
	case "stencil":
		return workload.Stencil(n, n, vol)
	case "cholesky":
		return workload.Cholesky(n, vol)
	case "lu":
		return workload.LU(n, vol)
	case "pipeline":
		return workload.Pipeline(n, 4, vol)
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func writeAll(dir string, inst *workload.Instance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, w func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return w(f)
	}
	if err := write("graph.json", func(f *os.File) error {
		_, err := inst.Graph.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	if err := write("platform.json", func(f *os.File) error {
		_, err := inst.Platform.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	return write("costs.json", func(f *os.File) error {
		_, err := inst.Costs.WriteTo(f)
		return err
	})
}
