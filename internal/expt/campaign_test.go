package expt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// testCampaign returns a small grid that exercises every dimension while
// staying fast enough for the race detector.
func testCampaign() Campaign {
	return Campaign{
		Name:          "test",
		Schedulers:    []SchedulerID{SchedFTSA, SchedMCFTSA},
		Epsilons:      []int{1, 2},
		Granularities: []float64{0.5, 1.0},
		Families:      []string{"random", "forkjoin"},
		Instances:     2,
		Procs:         6,
		TasksMin:      20,
		TasksMax:      30,
		Seed:          7,
	}
}

func campaignCSV(t *testing.T, res *CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, res); err != nil {
		t.Fatalf("WriteCampaignCSV: %v", err)
	}
	return buf.Bytes()
}

func TestCampaignValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Campaign)
	}{
		{"no schedulers", func(c *Campaign) { c.Schedulers = nil }},
		{"bad scheduler", func(c *Campaign) { c.Schedulers = []SchedulerID{"SLURM"} }},
		{"alias duplicates name", func(c *Campaign) { c.Schedulers = []SchedulerID{"mcftsa", "MC-FTSA"} }},
		{"non-FT scheduler with eps>0", func(c *Campaign) { c.Schedulers = []SchedulerID{"HEFT"} }},
		{"no epsilons", func(c *Campaign) { c.Epsilons = nil }},
		{"eps too large", func(c *Campaign) { c.Epsilons = []int{c.Procs} }},
		{"negative eps", func(c *Campaign) { c.Epsilons = []int{-1} }},
		{"no granularities", func(c *Campaign) { c.Granularities = nil }},
		{"zero granularity", func(c *Campaign) { c.Granularities = []float64{0} }},
		{"NaN granularity", func(c *Campaign) { c.Granularities = []float64{math.NaN()} }},
		{"infinite granularity", func(c *Campaign) { c.Granularities = []float64{math.Inf(1)} }},
		{"NaN granularity twice", func(c *Campaign) { c.Granularities = []float64{math.NaN(), math.NaN()} }},
		{"no families", func(c *Campaign) { c.Families = nil }},
		{"unknown family", func(c *Campaign) { c.Families = []string{"torus"} }},
		{"no instances", func(c *Campaign) { c.Instances = 0 }},
		{"no procs", func(c *Campaign) { c.Procs = 0 }},
		{"bad task range", func(c *Campaign) { c.TasksMin, c.TasksMax = 10, 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCampaign()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid campaign %+v", c)
			}
		})
	}
	if err := testCampaign().Validate(); err != nil {
		t.Fatalf("Validate rejected valid campaign: %v", err)
	}
	if err := PaperCampaign().Validate(); err != nil {
		t.Fatalf("Validate rejected paper preset: %v", err)
	}
}

// A registry-only variant must be sweepable exactly like the paper's three
// schedulers: same grid, deterministic results, distinct from plain FTSA.
func TestCampaignRunsRegistryVariant(t *testing.T) {
	c := testCampaign()
	c.Schedulers = []SchedulerID{SchedFTSA, "ftsa-ins"}
	c.Granularities = []float64{1.0}
	c.Families = []string{"random"}
	if err := c.Validate(); err != nil {
		t.Fatalf("campaign with ftsa-ins rejected: %v", err)
	}
	res, err := RunCampaign(c, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ftsa, ins []CellResult
	for _, cell := range res.Cells {
		switch cell.Scheduler {
		case SchedFTSA:
			ftsa = append(ftsa, cell)
		case "ftsa-ins":
			ins = append(ins, cell)
		}
	}
	if len(ins) == 0 || len(ins) != len(ftsa) {
		t.Fatalf("ftsa-ins cells = %d, ftsa cells = %d", len(ins), len(ftsa))
	}
	var insTotal, ftsaTotal float64
	differs := false
	for i := range ins {
		insTotal += ins[i].Lower
		ftsaTotal += ftsa[i].Lower
		if ins[i].Lower != ftsa[i].Lower {
			differs = true
		}
	}
	if !differs {
		t.Error("ftsa-ins produced identical lower bounds to ftsa on every cell; insertion is not wired through")
	}
	// A single cell can go either way (an inserted replica perturbs every
	// later greedy choice), but across the grid insertion must not lose.
	if insTotal > ftsaTotal+1e-9 {
		t.Errorf("ftsa-ins total normalized lower bound %g worse than ftsa %g", insTotal, ftsaTotal)
	}
}

func TestCampaignCellsEnumeration(t *testing.T) {
	c := testCampaign()
	cells := c.Cells()
	if len(cells) != c.NumCells() {
		t.Fatalf("got %d cells, NumCells says %d", len(cells), c.NumCells())
	}
	want := len(c.Schedulers) * len(c.Epsilons) * len(c.Granularities) * len(c.Families) * c.Instances
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, cell := range cells {
		if cell.Index != i {
			t.Fatalf("cell %d has index %d", i, cell.Index)
		}
	}
}

func TestRunCellDeterministic(t *testing.T) {
	c := testCampaign()
	cell := c.Cells()[3]
	a, err := c.RunCell(cell)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	b, err := c.RunCell(cell)
	if err != nil {
		t.Fatalf("RunCell (repeat): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunCell not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
	if a.Lower <= 0 || a.Upper < a.Lower {
		t.Fatalf("implausible bounds: %+v", a)
	}
}

// TestCampaignDeterminismAcrossWorkers is the engine's core guarantee: the
// same spec run with 1 worker and with N workers produces byte-identical
// aggregated output.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	c := testCampaign()
	serial, err := RunCampaign(c, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := RunCampaign(c, EngineOptions{Workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Fatal("per-cell results differ between 1 and 4 workers")
	}
	if got, want := campaignCSV(t, parallel), campaignCSV(t, serial); !bytes.Equal(got, want) {
		t.Fatalf("aggregated CSV differs between 1 and 4 workers:\n%s\n---\n%s", want, got)
	}
}

// TestCampaignResumeMatchesUninterrupted interrupts a campaign by truncating
// its checkpoint to a prefix, resumes, and demands the exact uninterrupted
// output.
func TestCampaignResumeMatchesUninterrupted(t *testing.T) {
	c := testCampaign()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")

	full, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	wantCSV := campaignCSV(t, full)

	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 10 {
		t.Fatalf("checkpoint unexpectedly small: %d lines", len(lines))
	}
	// Keep the header plus a third of the cells, plus a torn half-line as
	// left behind by a mid-write interrupt.
	keep := 1 + (len(lines)-1)/3
	truncated := strings.Join(lines[:keep], "") + lines[keep][:len(lines[keep])/2]
	if err := os.WriteFile(ckpt, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunCampaign(c, EngineOptions{Workers: 4, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full.Cells, resumed.Cells) {
		t.Fatal("resumed per-cell results differ from uninterrupted run")
	}
	if got := campaignCSV(t, resumed); !bytes.Equal(got, wantCSV) {
		t.Fatal("resumed aggregated CSV differs from uninterrupted run")
	}

	// After the resume the checkpoint holds the complete campaign again:
	// resuming once more recomputes nothing and still agrees.
	again, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if got := campaignCSV(t, again); !bytes.Equal(got, wantCSV) {
		t.Fatal("second resume diverged")
	}
}

// A resume that splits every instance's cells deterministically: the
// checkpoint holds exactly the cells with Index%3 == 0, so each instance
// resumes with some cells done and some pending.
func TestCampaignResumePartialInstances(t *testing.T) {
	c := testCampaign()
	full, err := RunCampaign(c, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	w, err := newCheckpointWriter(ckpt, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range full.Cells {
		if res.Index%3 == 0 {
			if err := w.writeJSON(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.promote(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunCampaign(c, EngineOptions{Workers: 3, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full.Cells, resumed.Cells) {
		t.Fatal("resumed per-cell results differ from uninterrupted run")
	}
	if got, want := campaignCSV(t, resumed), campaignCSV(t, full); !bytes.Equal(got, want) {
		t.Fatal("resumed aggregated CSV differs from uninterrupted run")
	}
	// Each cell is still the pure function of its coordinates that RunCell
	// computes from scratch, whichever cell of its instance ran first.
	for _, res := range resumed.Cells {
		want, err := c.RunCell(res.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("cell %d: engine %+v, RunCell %+v", res.Index, res, want)
		}
	}
}

func TestCampaignRefusesToClobberCheckpoint(t *testing.T) {
	c := testCampaign()
	c.Families, c.Epsilons = []string{"forkjoin"}, []int{1}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	if _, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt}); err != nil {
		t.Fatalf("full run: %v", err)
	}
	if _, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt}); err == nil {
		t.Fatal("second run without Resume overwrote an existing checkpoint")
	}
	if _, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt, Resume: true}); err != nil {
		t.Fatalf("resume of complete checkpoint: %v", err)
	}
}

func TestCampaignResumeRejectsForeignCheckpoint(t *testing.T) {
	c := testCampaign()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	if _, err := RunCampaign(c, EngineOptions{Workers: 2, Checkpoint: ckpt}); err != nil {
		t.Fatalf("full run: %v", err)
	}
	other := c
	other.Seed++
	_, err := RunCampaign(other, EngineOptions{Workers: 2, Checkpoint: ckpt, Resume: true})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume with foreign checkpoint: got %v, want ErrCheckpointMismatch", err)
	}
}

func TestCampaignFingerprintTracksSpec(t *testing.T) {
	a, b := testCampaign(), testCampaign()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs hash differently")
	}
	b.Granularities = []float64{0.5}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different specs share a fingerprint")
	}
}

func TestCampaignFigure(t *testing.T) {
	c := testCampaign()
	res, err := RunCampaign(c, EngineOptions{})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	f, err := CampaignFigure(res, "random", 1, MetricCrash)
	if err != nil {
		t.Fatalf("CampaignFigure: %v", err)
	}
	if len(f.Series) != len(c.Schedulers) {
		t.Fatalf("figure has %d series, want %d", len(f.Series), len(c.Schedulers))
	}
	for _, s := range f.Series {
		if len(s.Xs) != len(c.Granularities) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Xs), len(c.Granularities))
		}
	}
	if _, err := CampaignFigure(res, "nope", 1, MetricCrash); err == nil {
		t.Fatal("CampaignFigure accepted unknown family")
	}
	if _, err := CampaignFigure(res, "random", 1, CampaignMetric("latency")); err == nil {
		t.Fatal("CampaignFigure accepted unknown metric")
	}
}

func TestCampaignProgressAndWorkerDefaults(t *testing.T) {
	c := testCampaign()
	c.Families = []string{"forkjoin"}
	c.Epsilons = []int{1}
	var calls int
	var lastDone, lastTotal int
	_, err := RunCampaign(c, EngineOptions{Progress: func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if want := c.NumCells(); calls != want || lastDone != want || lastTotal != want {
		t.Fatalf("progress saw %d calls ending at %d/%d, want %d", calls, lastDone, lastTotal, want)
	}
}

func TestCampaignSharesInstanceAcrossSchedulers(t *testing.T) {
	c := testCampaign()
	cells := c.Cells()
	// First two cells differ only in scheduler; their instances must match.
	a, b := cells[0], cells[1]
	if a.Scheduler == b.Scheduler || a.Instance != b.Instance || a.Granularity != b.Granularity {
		t.Fatalf("unexpected enumeration order: %+v then %+v", a, b)
	}
	if c.instanceSeed(a) != c.instanceSeed(b) {
		t.Fatal("schedulers at one grid point see different instances")
	}
	ra, err := c.RunCell(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.RunCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Tasks != rb.Tasks || ra.Edges != rb.Edges || ra.FaultFree != rb.FaultFree {
		t.Fatalf("shared instance diverged across schedulers: %+v vs %+v", ra, rb)
	}
}

// BuildInstance must agree with the campaign engine's own instance
// materialization coordinate for coordinate, so tuning a point and sweeping
// it in a campaign study the same workload.
func TestBuildInstanceMatchesCampaign(t *testing.T) {
	c := Campaign{
		Name:          "probe",
		Schedulers:    []SchedulerID{SchedFTSA},
		Epsilons:      []int{1},
		Granularities: []float64{0.5},
		Families:      []string{"random"},
		Instances:     2,
		Procs:         6,
		TasksMin:      20,
		TasksMax:      30,
		Seed:          9,
	}
	cell := c.Cells()[len(c.Cells())-1] // instance index 1
	want, err := c.instance(cell, newRng())
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildInstance("random", 0.5, 6, 20, 30, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumTasks() != want.Graph.NumTasks() || got.Graph.NumEdges() != want.Graph.NumEdges() {
		t.Fatalf("BuildInstance diverged from the campaign instance: %d/%d tasks, %d/%d edges",
			got.Graph.NumTasks(), want.Graph.NumTasks(), got.Graph.NumEdges(), want.Graph.NumEdges())
	}
	for tsk := 0; tsk < got.Graph.NumTasks(); tsk++ {
		for pr := 0; pr < 6; pr++ {
			if got.Costs.Cost(dag.TaskID(tsk), platform.ProcID(pr)) != want.Costs.Cost(dag.TaskID(tsk), platform.ProcID(pr)) {
				t.Fatalf("cost matrix diverged at task %d proc %d", tsk, pr)
			}
		}
	}

	for _, bad := range []func() error{
		func() error { _, err := BuildInstance("nope", 1, 6, 20, 30, 0, 9); return err },
		func() error { _, err := BuildInstance("random", 0, 6, 20, 30, 0, 9); return err },
		func() error { _, err := BuildInstance("random", math.NaN(), 6, 20, 30, 0, 9); return err },
		func() error { _, err := BuildInstance("random", 1, 0, 20, 30, 0, 9); return err },
		func() error { _, err := BuildInstance("random", 1, 6, 30, 20, 0, 9); return err },
		func() error { _, err := BuildInstance("random", 1, 6, 20, 30, -1, 9); return err },
	} {
		if bad() == nil {
			t.Error("BuildInstance accepted an invalid argument set")
		}
	}
}

// TestPaperMessageAndLatencyBounds states two of the paper's claims on every
// cell of a small fixed-seed Figure 1–3 grid (the paper's schedulers, ε
// values, granularities and 20 processors; two instances of 40–60 tasks per
// point). Section 4.2: MC-FTSA keeps at most e(ε+1) inter-processor messages
// where FTSA may send e(ε+1)². Theorem 4.1: with ε processors crashed, the
// latency FTSA achieves lies between its schedule's lower and upper bound.
//
// The window is FTSA's alone, and that is a property of this reproduction,
// not a tolerance. A replayed MC-FTSA replica whose matched source crashed
// refetches from the best live copy (sim.Options.StrictMatched), which can
// deliver before the matched one would have or after its pessimistic time:
// on this grid 26 MC-FTSA cells finish below their lower bound and one above
// its upper bound. One FTBAR cell finishes below its lower bound too (its
// Minimize-Start-Time duplicates are outside the theorem's argument);
// FTBAR's upper bound holds on every cell and is checked. MC-FTSA is held to
// what the figures need: it survives.
func TestPaperMessageAndLatencyBounds(t *testing.T) {
	c := PaperCampaign()
	c.Instances = 2
	c.TasksMin, c.TasksMax = 40, 60
	res, err := RunCampaign(c, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != c.NumCells() {
		t.Fatalf("%d cells, want %d", len(res.Cells), c.NumCells())
	}
	const tol = 1e-9 // on latencies normalised to O(1)
	for _, r := range res.Cells {
		k := r.Epsilon + 1
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("cell %d (%s, ε=%d, g=%g): "+format,
				append([]any{r.Index, r.Scheduler, r.Epsilon, r.Granularity}, args...)...)
		}
		switch r.Scheduler {
		case SchedMCFTSA:
			if bound := r.Edges * k; r.Messages > bound {
				fail("%d messages, above e(ε+1) = %d", r.Messages, bound)
			}
			if !(r.Crash > 0) || math.IsInf(r.Crash, 0) {
				fail("latency %g under %d crashes: the schedule did not survive", r.Crash, r.Epsilon)
			}
		case SchedFTSA:
			if bound := r.Edges * k * k; r.Messages > bound {
				fail("%d messages, above e(ε+1)² = %d", r.Messages, bound)
			}
			if r.Crash < r.Lower-tol {
				fail("latency %g under %d crashes below the lower bound %g", r.Crash, r.Epsilon, r.Lower)
			}
			fallthrough
		case SchedFTBAR:
			if r.Crash > r.Upper+tol {
				fail("latency %g under %d crashes above the guarantee %g", r.Crash, r.Epsilon, r.Upper)
			}
		}
	}
}
