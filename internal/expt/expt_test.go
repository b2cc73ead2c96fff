package expt

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// smallFigure runs a figure preset shrunk so the full pipeline finishes in
// test time while preserving every code path, and projects it onto its
// panels.
func smallFigure(t *testing.T, fig, instances int) (Campaign, []*Figure) {
	t.Helper()
	c, err := FigureCampaign(fig)
	if err != nil {
		t.Fatal(err)
	}
	c.Granularities = []float64{0.4, 1.0, 2.0}
	c.Instances = instances
	c.TasksMin, c.TasksMax = 40, 60
	res, err := RunCampaign(c, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panels, err := FigurePanels(fig, res)
	if err != nil {
		t.Fatal(err)
	}
	return c, panels
}

func legend(f *Figure) []string {
	var names []string
	for _, s := range f.Series {
		names = append(names, s.Name)
	}
	return names
}

// sweepMean is the mean of a series' per-point means over the sweep.
func sweepMean(t *testing.T, f *Figure, name string) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			tot := 0.0
			for _, p := range s.Points {
				tot += p.Mean()
			}
			return tot / float64(len(s.Xs))
		}
	}
	t.Fatalf("series %q missing from %q", name, f.Title)
	return 0
}

func TestFigureConfigs(t *testing.T) {
	// The fingerprints are pinned: a checkpoint written by `ftexp -fig N`
	// must stay resumable across PRs, so a preset may only change on purpose.
	want := map[int]string{
		1: "75837aa0da4f12f4", 2: "3290bf8ebdb7092e",
		3: "ae5e0bdb41a89642", 4: "5277f5cdcff66de7",
	}
	for fig := 1; fig <= 4; fig++ {
		c, err := FigureCampaign(fig)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if c.Instances != 60 || len(c.Granularities) != 10 || c.EvalTrials != 1 {
			t.Errorf("figure %d: not the paper's sweep: %+v", fig, c)
		}
		if got := c.Fingerprint(); got != want[fig] {
			t.Errorf("figure %d fingerprint = %s, want %s", fig, got, want[fig])
		}
	}
	if _, err := FigureCampaign(9); err == nil {
		t.Error("want error for unknown figure")
	}
	if _, err := FigurePanels(9, &CampaignResult{}); err == nil {
		t.Error("want error projecting an unknown figure")
	}
	if got := FamiliesCampaign().Fingerprint(); got != "32d4f8ded53735ef" {
		t.Errorf("families fingerprint = %s, want 32d4f8ded53735ef", got)
	}
	if got := len(PaperGranularities()); got != 10 {
		t.Errorf("granularity sweep has %d points, want 10", got)
	}
}

func TestRunProducesAllSeries(t *testing.T) {
	wantLegends := map[int][][]string{
		1: {
			{"FTSA-LowerBound", "FTSA-UpperBound", "FTBAR-LowerBound", "FTBAR-UpperBound",
				"MC-FTSA-LowerBound", "MC-FTSA-UpperBound", "FaultFree-FTSA", "FaultFree-FTBAR"},
			{"FTSA with 1 Crash", "MC-FTSA with 1 Crash", "FTBAR with 1 Crash", "FTSA with 0 Crash", "Fault Free FTSA"},
			{"FTSA with 1 Crash", "MC-FTSA with 1 Crash", "FTBAR with 1 Crash", "FTSA with 0 Crash"},
		},
		3: {
			nil, // as Figure 1(a)
			{"FTSA with 5 Crash", "MC-FTSA with 5 Crash", "FTBAR with 5 Crash", "FTSA with 0 Crash", "Fault Free FTSA", "FTSA with 2 Crash"},
			{"FTSA with 5 Crash", "MC-FTSA with 5 Crash", "FTBAR with 5 Crash", "FTSA with 0 Crash", "FTSA with 2 Crash"},
		},
		4: {
			{"FTSA with 0 Crash", "FTSA with 1 Crash", "FTSA with 2 Crash", "Fault Free FTSA"},
			{"FTSA with 0 Crash", "FTSA with 1 Crash", "FTSA with 2 Crash"},
		},
	}
	wantLegends[3][0] = wantLegends[1][0]
	for fig, want := range wantLegends {
		c, panels := smallFigure(t, fig, 4)
		if len(panels) != len(want) {
			t.Fatalf("figure %d has %d panels, want %d", fig, len(panels), len(want))
		}
		for i, f := range panels {
			if got := legend(f); !slices.Equal(got, want[i]) {
				t.Errorf("figure %d panel %d legend = %q, want %q", fig, i, got, want[i])
			}
			for _, s := range f.Series {
				if len(s.Xs) != len(c.Granularities) {
					t.Errorf("series %q has %d points, want %d", s.Name, len(s.Xs), len(c.Granularities))
				}
				for _, p := range s.Points {
					if p.N() != c.Instances {
						t.Errorf("series %q point has %d samples, want %d", s.Name, p.N(), c.Instances)
					}
				}
			}
		}
	}
}

func TestRunQualitativeShape(t *testing.T) {
	// The paper's qualitative claims, checked on sweep averages:
	//  1. FTSA's lower bound beats FTBAR's lower bound;
	//  2. FTSA's lower bound is close to (and above) the fault-free latency;
	//  3. MC-FTSA's bound gap is smaller than FTSA's;
	//  4. normalized latency increases with granularity.
	_, panels := smallFigure(t, 1, 8)
	bounds := panels[0]
	mean := func(name string) float64 { return sweepMean(t, bounds, name) }
	ftsaLB, ftbarLB := mean("FTSA-LowerBound"), mean("FTBAR-LowerBound")
	if ftsaLB >= ftbarLB {
		t.Errorf("FTSA LB %.3f should beat FTBAR LB %.3f", ftsaLB, ftbarLB)
	}
	// "FTSA achieves a really good lower bound, which is very close to the
	// fault free version" — within 20% either way. (It can dip *below* the
	// fault-free latency: equation (1) lets a replica use the earliest of
	// ε+1 predecessor copies, an option the single-copy schedule lacks.)
	ff := mean("FaultFree-FTSA")
	if ratio := ftsaLB / ff; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("FTSA LB %.3f not close to fault-free %.3f (ratio %.2f)", ftsaLB, ff, ratio)
	}
	if gap := mean("MC-FTSA-UpperBound") - mean("MC-FTSA-LowerBound"); gap >= mean("FTSA-UpperBound")-mean("FTSA-LowerBound") {
		t.Errorf("MC-FTSA gap %.3f not below FTSA gap", gap)
	}
	// Latency grows with granularity for the FTSA lower bound.
	s := bounds.Series[0]
	if first, last := s.Points[0].Mean(), s.Points[len(s.Xs)-1].Mean(); s.Name != "FTSA-LowerBound" || last <= first {
		t.Errorf("normalized %s should grow with granularity: %.3f -> %.3f", s.Name, first, last)
	}
	// The fault-free FTBAR curve is the ε=0 FTBAR schedule, not FTSA's.
	if ffBAR := mean("FaultFree-FTBAR"); ffBAR <= ff {
		t.Errorf("FaultFree-FTBAR %.3f should lie above FaultFree-FTSA %.3f", ffBAR, ff)
	}
}

func TestRunFigure4(t *testing.T) {
	c, panels := smallFigure(t, 4, 4)
	if c.Procs != 5 || len(c.Schedulers) != 1 {
		t.Fatalf("figure 4 runs FTSA alone on 5 processors, got %+v", c)
	}
	crash, overhead := panels[0], panels[1]
	// More crashes cannot decrease latency on average (sweep-aggregate).
	for _, f := range []*Figure{crash, overhead} {
		zero, one, two := sweepMean(t, f, "FTSA with 0 Crash"), sweepMean(t, f, "FTSA with 1 Crash"), sweepMean(t, f, "FTSA with 2 Crash")
		if one < zero-1e-9 || two < one-1e-9 {
			t.Errorf("%s: sweep means not monotone in the crash count: %.3f, %.3f, %.3f", f.Title, zero, one, two)
		}
	}
	if ff := sweepMean(t, crash, "Fault Free FTSA"); ff <= 0 || ff > sweepMean(t, crash, "FTSA with 2 Crash") {
		t.Errorf("fault-free latency %.3f should be positive and below the 2-crash latency", ff)
	}
}

func TestFigurePanelsRejectLostCell(t *testing.T) {
	c, err := FigureCampaign(4)
	if err != nil {
		t.Fatal(err)
	}
	c.Granularities, c.Instances = []float64{1}, 1
	res, err := RunCampaign(c, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Cells[1].SuccessRate = 0
	if _, err := FigurePanels(4, res); err == nil || !strings.Contains(err.Error(), "did not survive uniform:1") {
		t.Errorf("lost cell not reported: %v", err)
	}
}

// TestRunFamilies pins the structural message bounds of experiment X5 on the
// families preset: MC-FTSA keeps exactly ε+1 messages per edge at most, FTSA
// up to (ε+1)² — and never fewer than MC-FTSA on the same instance.
func TestRunFamilies(t *testing.T) {
	c := FamiliesCampaign()
	res, err := RunCampaign(c, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Families) != 8 || len(res.Cells) != 3*len(c.Families) {
		t.Fatalf("families = %v, cells = %d", c.Families, len(res.Cells))
	}
	eps := c.Epsilons[0]
	msgs := map[string]map[SchedulerID]int{}
	for _, r := range res.Cells {
		if r.Tasks <= 0 || r.Edges <= 0 {
			t.Errorf("%s: degenerate shape %d/%d", r.Family, r.Tasks, r.Edges)
		}
		if r.Lower <= 0 || r.Upper < r.Lower-1e-9 {
			t.Errorf("%s %s: bounds %g/%g", r.Family, r.Scheduler, r.Lower, r.Upper)
		}
		if msgs[r.Family] == nil {
			msgs[r.Family] = map[SchedulerID]int{}
		}
		msgs[r.Family][r.Scheduler] = r.Messages
		if r.Scheduler == SchedMCFTSA && r.Messages > r.Edges*(eps+1) {
			t.Errorf("%s: MC messages %d exceed e(ε+1) = %d", r.Family, r.Messages, r.Edges*(eps+1))
		}
		if r.Scheduler == SchedFTSA && r.Messages > r.Edges*(eps+1)*(eps+1) {
			t.Errorf("%s: FTSA messages %d exceed e(ε+1)²", r.Family, r.Messages)
		}
	}
	for fam, m := range msgs {
		if m[SchedFTSA] < m[SchedMCFTSA] {
			t.Errorf("%s: FTSA messages %d below MC %d", fam, m[SchedFTSA], m[SchedMCFTSA])
		}
	}
	var buf bytes.Buffer
	if err := WriteCampaignASCII(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# cholesky ε=2") {
		t.Error("table missing the cholesky block")
	}
}

func TestEmitters(t *testing.T) {
	c, panels := smallFigure(t, 1, 2)
	bounds, crash := panels[0], panels[1]
	var ascii, csv bytes.Buffer
	if err := WriteASCII(&ascii, bounds); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "FTSA-LowerBound") {
		t.Error("ASCII output missing header")
	}
	if err := WriteCSV(&csv, crash); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(c.Granularities) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(c.Granularities))
	}
	if err := WriteASCII(&ascii, nil); err == nil {
		t.Error("want error for nil figure")
	}
	var svg bytes.Buffer
	if err := WriteSVG(&svg, bounds); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("SVG output missing root element")
	}
	if err := WriteSVG(&svg, nil); err == nil {
		t.Error("want error for nil figure in SVG")
	}
}

func TestRunTable1Small(t *testing.T) {
	cfg := Table1Config{TaskCounts: []int{50, 150}, Procs: 20, Epsilon: 2, Seed: 1}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FTSA <= 0 || r.MCFTSA <= 0 || r.FTBAR <= 0 {
			t.Errorf("non-positive timing in row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Number of tasks") {
		t.Error("table output missing header")
	}
}
