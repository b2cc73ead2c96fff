// Command benchdiff turns `go test -bench` output into a machine-readable
// benchmark manifest and gates allocation regressions against a checked-in
// baseline — the comparator behind CI's bench job.
//
// Usage:
//
//	go test -run=NoTests -bench=. -benchtime=3x -count=3 ./... | tee bench.out
//	benchdiff -input bench.out -out BENCH_PR5.json \
//	          -baseline .github/bench-baseline.json -max-allocs-regression 0.25
//	benchdiff -input bench.out -baseline .github/bench-baseline.json -update
//
// Multiple -count runs of one benchmark are folded by taking the minimum —
// the least-noisy estimate of both ns/op and allocs/op. The gate compares
// allocs/op only: allocation counts are a property of the code, essentially
// independent of the host (run the benchmarks under GOMAXPROCS=1 so worker
// pools size identically everywhere), while ns/op is recorded purely as
// context. A benchmark present in the baseline but missing from the input
// fails the gate, so renaming or deleting a pinned benchmark forces a
// baseline update in the same change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	var (
		input    = flag.String("input", "", "go test -bench output to parse (default stdin)")
		out      = flag.String("out", "", "write the parsed manifest (benchmark -> ns/op, allocs/op) to this JSON file")
		baseline = flag.String("baseline", "", "baseline manifest to gate against")
		maxRegr  = flag.Float64("max-allocs-regression", 0.25, "maximum tolerated relative allocs/op growth vs. baseline")
		update   = flag.Bool("update", false, "rewrite -baseline from the parsed input instead of gating")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	current, err := ParseBench(r)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results found in the input"))
	}
	if *out != "" {
		if err := writeManifest(*out, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(current), *out)
	}
	if *baseline == "" {
		return
	}
	if *update {
		if err := writeManifest(*baseline, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: baseline %s updated (%d benchmarks)\n", *baseline, len(current))
		return
	}
	base, err := readManifest(*baseline)
	if err != nil {
		fatal(err)
	}
	problems := Compare(base, current, *maxRegr)
	var unseen []string
	for name := range current {
		if _, ok := base[name]; !ok {
			unseen = append(unseen, name)
		}
	}
	sort.Strings(unseen) // deterministic output, like Compare
	for _, name := range unseen {
		fmt.Printf("benchdiff: note: %s is not in the baseline (allocs/op %s); add it on the next -update\n",
			name, formatAllocs(current[name].AllocsOp))
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchdiff:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.0f%% of baseline allocs/op\n", len(base), 100**maxRegr)
}

func formatAllocs(a *int64) string {
	if a == nil {
		return "n/a"
	}
	return fmt.Sprint(*a)
}

func writeManifest(path string, m Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readManifest(path string) (Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
