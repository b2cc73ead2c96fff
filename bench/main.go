// Command bench is the repository's wall-clock benchmark: five workloads
// over the whole system, seven end-to-end metrics each, and a traced pass
// that attributes time to layers. See README.md.
//
//	go run -C bench . [-seed N] [-workload NAME] [-seconds S] [-trace 0|1] [-out FILE]
//	go run -C bench . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured time per
// workload, split evenly over the repeats.
const defaultSeconds = 18

// defaultRepeats is how many fresh-server windows a workload's medians are
// taken over.
const defaultRepeats = 3

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func newBench(seed int64, seconds float64, smoke, trace bool, outDir string, log io.Writer) *bench {
	b := &bench{seed: seed, seconds: seconds, repeats: defaultRepeats, clients: min(runtime.NumCPU(), 4),
		sz: fullSizes(seed), smoke: smoke, trace: trace, outDir: outDir, log: log}
	if smoke {
		b.sz, b.repeats = smokeSizes(seed), 1
	}
	return b
}

// run measures the named workloads (all when names is empty).
func (b *bench) run(names []string) (*report, error) {
	rep := &report{Machine: thisMachine(), Seed: b.seed, Seconds: b.seconds, Repeats: b.repeats,
		Clients: b.clients, Smoke: b.smoke}
	if len(names) == 0 {
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	for _, name := range names {
		wl := workloadByName(name)
		if wl == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		fmt.Fprintf(b.log, "workload %s\n", wl.Name)
		wr, err := b.runWorkload(wl)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func (r *report) correct() bool {
	for _, wr := range r.Workloads {
		if !wr.Correct {
			return false
		}
	}
	return true
}

// resultLine is the one-object summary a single-workload run ends with: the
// end-to-end metrics, or with tracing on the per-layer metrics.
func resultLine(wr *workloadReport, traced bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := wr.EndToEnd
	if traced {
		vals = wr.PerLayer
	}
	metrics := make(map[string]metric, len(vals))
	for name, v := range vals {
		metrics[name] = metric{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

// selfcheck runs the whole benchmark twice and compares the two sets of
// medians against each metric's own bound.
func selfcheck(seed int64, seconds float64, smoke bool, outDir string) (bool, error) {
	var runs [2]*report
	for i := range runs {
		fmt.Fprintf(os.Stderr, "selfcheck run %d/2\n", i+1)
		r, err := newBench(seed, seconds, smoke, false, outDir, os.Stderr).run(nil)
		if err != nil {
			return false, err
		}
		if !r.correct() {
			r.print(os.Stdout)
			return false, nil
		}
		runs[i] = r
	}
	pass := true
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for w, first := range runs[0].Workloads {
		second := runs[1].Workloads[w]
		for _, d := range endToEnd {
			a, b := first.EndToEnd[d.Name].Value, second.EndToEnd[d.Name].Value
			// The gap is how much worse the second run reads, as a share of
			// the first; negative is better.
			gap := (b - a) / a
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			if gap > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
				first.Name, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return pass, nil
}

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the only input the request streams and the campaign derive from")
	name := flag.String("workload", "", "run one workload and end with its one-line JSON result (default: all)")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per workload, split over the repeats")
	trace := flag.Int("trace", 1, "1: follow the measured repeats with the traced per-layer pass; 0: end-to-end only")
	out := flag.String("out", "", "also write the full report (per-repeat raws, machine facts) to this JSON file")
	smoke := flag.Bool("smoke", false, "tiny corpus, 0.3 s windows, one repeat: the configuration bench_test.go runs")
	check := flag.Bool("selfcheck", false, "run the full benchmark twice and compare the medians against each metric's bound")
	flag.Parse()

	outDir := "out"
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		outDir = "bench/out" // started from the repository root
	}
	if *smoke && *seconds == defaultSeconds {
		*seconds = 0.3
	}
	if *check {
		pass, err := selfcheck(*seed, *seconds, *smoke, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}

	var names []string
	if *name != "" {
		names = []string{*name}
	}
	rep, err := newBench(*seed, *seconds, *smoke, *trace != 0, outDir, os.Stderr).run(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if *name != "" {
		fmt.Println(resultLine(rep.Workloads[0], *trace != 0))
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
