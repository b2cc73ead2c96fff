package expt

import (
	"bytes"
	"strings"
	"testing"
)

// evalCampaign is a small grid carrying the failure-scenario dimension.
func evalCampaign() Campaign {
	c := testCampaign()
	c.Name = "eval-test"
	c.Families = []string{"random"}
	c.Granularities = []float64{1.0}
	c.Scenarios = []string{"uniform:2", "exp:0.01", "group:3:0.01"}
	c.EvalTrials = 60
	return c
}

func TestEvalCampaignValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Campaign)
	}{
		{"trials without scenarios", func(c *Campaign) { c.Scenarios = nil }},
		{"scenarios without trials", func(c *Campaign) { c.EvalTrials = 0 }},
		{"bad scenario", func(c *Campaign) { c.Scenarios = []string{"meteor:1"} }},
		{"oversized crash count", func(c *Campaign) { c.Scenarios = []string{"uniform:99"} }},
		{"duplicate via alias", func(c *Campaign) { c.Scenarios = []string{"exp:0.01", "exponential:0.01"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := evalCampaign()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("Validate accepted a bad evaluation campaign")
			}
		})
	}
	c := evalCampaign()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid evaluation campaign rejected: %v", err)
	}
}

// The scenario dimension multiplies the grid and threads through every cell.
func TestEvalCampaignGrid(t *testing.T) {
	c := evalCampaign()
	if got, want := c.NumCells(), 2*2*1*2*3; got != want { // sched × eps × gran × inst × scn
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	cells := c.Cells()
	if len(cells) != c.NumCells() {
		t.Fatalf("Cells() returned %d, want %d", len(cells), c.NumCells())
	}
	seen := map[string]int{}
	for i, cell := range cells {
		if cell.Index != i {
			t.Fatalf("cell %d has index %d", i, cell.Index)
		}
		if cell.Scenario == "" {
			t.Fatalf("cell %d has no scenario", i)
		}
		seen[cell.Scenario]++
	}
	for _, scn := range c.Scenarios {
		if seen[scn] != c.NumCells()/len(c.Scenarios) {
			t.Fatalf("scenario %q covers %d cells, want %d", scn, seen[scn], c.NumCells()/len(c.Scenarios))
		}
	}
}

// Evaluation campaigns keep the engine's core guarantee: identical
// aggregates for any worker count, including the new success/p99 columns.
func TestEvalCampaignDeterministicAcrossWorkers(t *testing.T) {
	c := evalCampaign()
	serial, err := RunCampaign(c, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(c, EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := campaignCSV(t, serial), campaignCSV(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("aggregated CSV differs between 1 and 4 workers:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), "scenario,trials,success_mean") {
		t.Fatalf("evaluation CSV missing scenario columns:\n%s", a)
	}
	// Within the guarantee region every uniform:2 cell of an ε=2 row must
	// succeed; sanity-check one aggregated value.
	foundGuaranteed := false
	for _, row := range serial.Rows() {
		if row.Scenario == "uniform:2" && row.Epsilon == 2 {
			foundGuaranteed = true
			if row.Success.Mean() != 1 {
				t.Fatalf("ε=2 under uniform:2 has success %g, want 1", row.Success.Mean())
			}
		}
		if row.Scenario != "" && row.Success.N() == 0 {
			t.Fatalf("row %+v has no success samples", row)
		}
	}
	if !foundGuaranteed {
		t.Fatal("no uniform:2 ε=2 rows aggregated")
	}
}

// All schedulers of one (instance, ε, scenario) point must face identical
// failure draws — the seed excludes the scheduler coordinate.
func TestEvalSeedSharedAcrossSchedulers(t *testing.T) {
	c := evalCampaign()
	var ftsa, mcftsa Cell
	for _, cell := range c.Cells() {
		if cell.Instance == 1 && cell.Epsilon == 2 && cell.Scenario == "exp:0.01" {
			switch cell.Scheduler {
			case SchedFTSA:
				ftsa = cell
			case SchedMCFTSA:
				mcftsa = cell
			}
		}
	}
	if c.evalSeed(ftsa) != c.evalSeed(mcftsa) {
		t.Fatal("schedulers of one grid point draw different failure samples")
	}
	other := ftsa
	other.Scenario = "uniform:2"
	if c.evalSeed(ftsa) == c.evalSeed(other) {
		t.Fatal("distinct scenarios share a failure-draw seed")
	}
}

// A scenario is a curve of its own: CampaignFigure must plot one series per
// (scheduler, scenario), never the average of the scenarios' rows.
func TestCampaignFigureSplitsScenarios(t *testing.T) {
	c := evalCampaign()
	c.Granularities = []float64{0.5, 1.0}
	c.Scenarios = []string{"uniform:1", "uniform:2"}
	c.EvalTrials = 3
	res, err := RunCampaign(c, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := CampaignFigure(res, "random", c.Epsilons[0], MetricCrash)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(f.Series), len(c.Scenarios)*len(c.Schedulers); got != want {
		t.Fatalf("figure has %d series, want %d (scenarios x schedulers)", got, want)
	}
	names := map[string]bool{}
	for _, s := range f.Series {
		names[s.Name] = true
		if len(s.Xs) != len(c.Granularities) {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.Xs), len(c.Granularities))
		}
		for _, p := range s.Points {
			if p.N() != 1 {
				t.Errorf("series %q folds %d rows into one point", s.Name, p.N())
			}
		}
	}
	if len(names) != len(f.Series) || !names["FTSA-crash uniform:2"] {
		t.Errorf("series names do not tell the scenarios apart: %v", names)
	}
}

// Adding the (omitempty) scenario fields must not disturb the fingerprints
// of classic campaigns — their checkpoints predate the dimension.
func TestClassicCampaignFingerprintStable(t *testing.T) {
	c := testCampaign()
	if got, want := c.Fingerprint(), "2c230d6327acd770"; got != want {
		// The literal pins the pre-scenario encoding; if this fails, legacy
		// checkpoints can no longer resume.
		t.Fatalf("classic campaign fingerprint drifted: %s, want %s", got, want)
	}
	e := evalCampaign()
	if c.Fingerprint() == e.Fingerprint() {
		t.Fatal("evaluation dimension invisible to the fingerprint")
	}
}
