package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// value is one reported metric: the median over the repeats (or the p50 over
// a traced layer's spans), its unit, the number of samples behind it and the
// per-repeat raw values.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Repeats []float64 `json:"repeats,omitempty"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Loop string `json:"loop"`
	// Attempted and Failed count operations over every repeat; FailShare is
	// their ratio, which every workload is chosen to keep at 0.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailShare float64 `json:"fail_share"`
	// Correct is false when any output check failed; Problems says which.
	Correct       bool             `json:"correct"`
	Problems      []string         `json:"problems,omitempty"`
	OutputsDigest string           `json:"outputs_digest"`
	EndToEnd      map[string]value `json:"end_to_end"`
	PerLayer      map[string]value `json:"per_layer,omitempty"`
	Repeats       []repeatFacts    `json:"repeats"`
}

// machine records where the numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// report is the full output of one invocation (-out).
type report struct {
	Machine   machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds_per_workload"`
	Repeats   int               `json:"repeats"`
	Clients   int               `json:"clients"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
}

func thisMachine() machine {
	return machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// print writes the human-readable tables: one row per metric, one column per
// workload, every value with its unit and sample count.
func (r *report) print(w io.Writer) {
	m := r.Machine
	fmt.Fprintf(w, "ftsched bench: seed %d, %g s per workload in %d repeats, %d clients; nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		r.Seed, r.Seconds, r.Repeats, r.Clients, m.NProc, m.GOMAXPROCS, m.Go, m.OS, m.Arch)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\nworkload %s (%s loop): %d attempted, %d failed (fail_share %g), outputs_digest %.16s\n",
			wr.Name, wr.Loop, wr.Attempted, wr.Failed, wr.FailShare, wr.OutputsDigest)
		for i, f := range wr.Repeats {
			note := ""
			if !f.Valid {
				note = "  INVALID: the generator ran late, repeat kept out of the medians"
			}
			fmt.Fprintf(w, "  repeat %d: %d ops in %.3f s, set-up %.3f s, generator lag p95 %.3f ms max %.3f ms%s\n",
				i+1, f.Ops, f.WindowS, f.SetupS, f.GeneratorLagP95Ms, f.GeneratorLagMaxMs, note)
		}
		printMetrics(w, "end-to-end", endToEnd, wr.EndToEnd)
		if len(wr.PerLayer) > 0 {
			printMetrics(w, "per-layer (traced pass)", perLayer, wr.PerLayer)
		}
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
		}
	}
}

func printMetrics(w io.Writer, title string, decls []metricDecl, vals map[string]value) {
	fmt.Fprintf(w, "  %s:\n", title)
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-32s %14.6g %-6s n=%-7d", d.Name, v.Value, v.Unit, v.Samples)
		if len(v.Repeats) > 1 {
			fmt.Fprintf(w, " repeats %.6g", v.Repeats)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
