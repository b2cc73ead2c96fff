package expt

import (
	"fmt"

	"ftsched/internal/stats"
	"ftsched/internal/workload"
)

// Figure is the output of one sub-figure: named series over the granularity
// sweep.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*stats.Series
}

// normalizer returns the latency normalization constant for an instance: the
// mean communication cost of one edge (mean volume × mean unit delay).
// Unlike task execution costs, communication costs are *not* rescaled by the
// granularity sweep, so this normalizer is constant across a figure's x-axis
// and reproduces the paper's increasing normalized-latency curves (the paper
// never defines its normalizer; any per-instance constant preserves the
// relative positions of the curves, which is what the reproduction targets).
func normalizer(inst *workload.Instance) float64 {
	e := inst.Graph.NumEdges()
	if e == 0 {
		return inst.Costs.MeanOverTasks()
	}
	return inst.Graph.TotalVolume() / float64(e) * inst.Platform.MeanDelay()
}

// PaperGranularities returns the paper's sweep 0.2, 0.4, ..., 2.0.
func PaperGranularities() []float64 {
	out := make([]float64, 0, 10)
	for i := 1; i <= 10; i++ {
		out = append(out, float64(i)*0.2)
	}
	return out
}

// paperFigures holds what distinguishes the paper's four figures: ε, the
// platform size and the crash counts replayed against the ε-tolerant
// schedules (the last one is ε itself). Figure 4 plots FTSA alone.
var paperFigures = map[int]struct {
	eps, procs int
	crashes    []int
	ftsaOnly   bool
}{
	1: {eps: 1, procs: 20, crashes: []int{1}},
	2: {eps: 2, procs: 20, crashes: []int{1, 2}},
	3: {eps: 5, procs: 20, crashes: []int{2, 5}},
	4: {eps: 2, procs: 5, crashes: []int{0, 1, 2}, ftsaOnly: true},
}

func crashScenario(k int) string { return fmt.Sprintf("uniform:%d", k) }

// FigureCampaign returns the campaign behind paper Figure 1, 2 or 3 (ε = 1,
// 2, 5 on 20 processors) or Figure 4 (FTSA on 5 processors, ε = 2): the
// paper's sweep with ε ∈ {0, ε} — the ε = 0 cells carry the fault-free
// FTBAR curve — and one uniform:k scenario per plotted crash count, a single
// trial each (the paper draws one crash set per graph). FigurePanels turns
// its result into the figure's panels.
func FigureCampaign(fig int) (Campaign, error) {
	spec, ok := paperFigures[fig]
	if !ok {
		return Campaign{}, fmt.Errorf("expt: no figure %d in the paper", fig)
	}
	c := PaperCampaign()
	c.Name = fmt.Sprintf("paper-figure-%d", fig)
	c.Epsilons = []int{0, spec.eps}
	c.Procs = spec.procs
	c.EvalTrials = 1
	for _, k := range spec.crashes {
		c.Scenarios = append(c.Scenarios, crashScenario(k))
	}
	if spec.ftsaOnly {
		c.Schedulers = []SchedulerID{SchedFTSA}
		c.Epsilons = []int{spec.eps}
	}
	return c, nil
}

// FigurePanels projects the result of a FigureCampaign run onto the paper's
// panels, under the paper's legend names: (a) bounds, (b) crash latencies
// and (c) overheads for Figures 1-3, (a) crash latencies and (b) overheads
// for Figure 4. Every point accumulates the campaign's per-instance samples,
// so a point's mean is the batch average the paper plots.
func FigurePanels(fig int, r *CampaignResult) ([]*Figure, error) {
	spec, ok := paperFigures[fig]
	if !ok {
		return nil, fmt.Errorf("expt: no figure %d in the paper", fig)
	}
	eps, first := spec.eps, crashScenario(spec.crashes[0])
	for i := range r.Cells {
		// Theorem 4.1: an ε-tolerant schedule survives any k <= ε crashes. A
		// lost cell would otherwise enter the crash curves as a zero.
		if c := &r.Cells[i]; c.Epsilon == eps && c.SuccessRate == 0 {
			return nil, fmt.Errorf("expt: cell %d: %s schedule with ε=%d did not survive %s",
				c.Index, c.Scheduler, eps, c.Scenario)
		}
	}
	series := func(name string, s SchedulerID, e int, scenario string, val func(*CellResult) float64) *stats.Series {
		out := stats.NewSeries(name)
		for i := range r.Cells {
			if c := &r.Cells[i]; c.Scheduler == s && c.Epsilon == e && c.Scenario == scenario {
				out.At(c.Granularity).Add(val(c))
			}
		}
		return out
	}
	lower := func(c *CellResult) float64 { return c.Lower }
	faultFree := func(c *CellResult) float64 { return c.FaultFree }

	setup := fmt.Sprintf(", ε=%d, m=%d", eps, r.Campaign.Procs)
	crash := &Figure{Title: "Crash latencies" + setup, XLabel: "Granularity", YLabel: "Normalized Latency"}
	overhead := &Figure{Title: "Overhead" + setup, XLabel: "Granularity", YLabel: "Average OverHead (%)"}
	crashed := func(s SchedulerID, k int) {
		name := fmt.Sprintf("%s with %d Crash", s, k)
		crash.Series = append(crash.Series, series(name, s, eps, crashScenario(k),
			func(c *CellResult) float64 { return c.Crash }))
		overhead.Series = append(overhead.Series, series(name, s, eps, crashScenario(k),
			func(c *CellResult) float64 { return c.Overhead }))
	}
	ffFTSA := series("Fault Free FTSA", SchedFTSA, eps, first, faultFree)
	if spec.ftsaOnly {
		for _, k := range spec.crashes {
			crashed(SchedFTSA, k)
		}
		crash.Series = append(crash.Series, ffFTSA)
		crash.Title, overhead.Title = "FTSA crash latencies"+setup, "FTSA overhead"+setup
		return []*Figure{crash, overhead}, nil
	}

	bounds := &Figure{Title: "Bounds" + setup, XLabel: "Granularity", YLabel: "Normalized Latency"}
	for _, s := range []SchedulerID{SchedFTSA, SchedFTBAR, SchedMCFTSA} {
		bounds.Series = append(bounds.Series,
			series(string(s)+"-LowerBound", s, eps, first, lower),
			series(string(s)+"-UpperBound", s, eps, first, func(c *CellResult) float64 { return c.Upper }))
	}
	bounds.Series = append(bounds.Series,
		series("FaultFree-FTSA", SchedFTSA, eps, first, faultFree),
		series("FaultFree-FTBAR", SchedFTBAR, 0, first, lower))

	for _, s := range AllSchedulers() {
		crashed(s, eps)
	}
	// Without a crash every replica runs, which is the lower bound M*.
	const noCrash = "FTSA with 0 Crash"
	crash.Series = append(crash.Series, series(noCrash, SchedFTSA, eps, first, lower), ffFTSA)
	overhead.Series = append(overhead.Series, series(noCrash, SchedFTSA, eps, first,
		func(c *CellResult) float64 { return 100 * (c.Lower - c.FaultFree) / c.FaultFree }))
	for _, k := range spec.crashes[:len(spec.crashes)-1] {
		crashed(SchedFTSA, k)
	}
	return []*Figure{bounds, crash, overhead}, nil
}
