package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ftsched/internal/stats"
)

// AggRow is one aggregated grid point: every metric accumulated over the
// campaign's instances at a fixed (family, scheduler, ε, granularity) —
// plus the scenario coordinate in evaluation campaigns (empty otherwise).
type AggRow struct {
	Family      string
	Scheduler   SchedulerID
	Epsilon     int
	Granularity float64
	Scenario    string

	Lower, Upper       stats.Accumulator
	FaultFree, Crash   stats.Accumulator
	Overhead, Messages stats.Accumulator
	// Success and EvalP99 aggregate the evaluation dimension (zero-sample
	// accumulators in classic campaigns).
	Success, EvalP99 stats.Accumulator
}

// key identifies a row; cells sorted by index arrive in canonical grid
// order, so insertion order of rows is deterministic too.
type aggKey struct {
	family      string
	scheduler   SchedulerID
	epsilon     int
	granularity float64
	scenario    string
}

// Rows aggregates the per-cell results into one row per grid point. Cells
// are consumed in index order, which fixes the floating-point accumulation
// order and makes the aggregate a pure function of the spec. Rows are then
// presented grouped as (family, ε, scenario, granularity, scheduler) —
// following each dimension's order in the spec — which reads as one block
// per figure (scenario is absent in classic campaigns).
func (r *CampaignResult) Rows() []*AggRow {
	index := make(map[aggKey]*AggRow)
	var rows []*AggRow
	for i := range r.Cells {
		c := &r.Cells[i]
		k := aggKey{c.Family, c.Scheduler, c.Epsilon, c.Granularity, c.Scenario}
		row, ok := index[k]
		if !ok {
			row = &AggRow{Family: c.Family, Scheduler: c.Scheduler,
				Epsilon: c.Epsilon, Granularity: c.Granularity, Scenario: c.Scenario}
			index[k] = row
			rows = append(rows, row)
		}
		row.Lower.Add(c.Lower)
		row.Upper.Add(c.Upper)
		row.FaultFree.Add(c.FaultFree)
		row.Messages.Add(float64(c.Messages))
		if c.Scenario == "" {
			row.Crash.Add(c.Crash)
			row.Overhead.Add(c.Overhead)
			continue
		}
		row.Success.Add(c.SuccessRate)
		// A cell whose every trial failed has no latency sample; folding
		// its zero-valued Crash/Overhead/EvalP99 into the means would drag
		// the harshest scenarios' crash latency toward zero — the opposite
		// of reality. Latency aggregates cover surviving cells only; the
		// success column says how many those are.
		if c.SuccessRate > 0 {
			row.Crash.Add(c.Crash)
			row.Overhead.Add(c.Overhead)
			row.EvalP99.Add(c.EvalP99)
		}
	}
	famPos := positions(r.Campaign.Families)
	epsPos := make(map[int]int, len(r.Campaign.Epsilons))
	for i, e := range r.Campaign.Epsilons {
		epsPos[e] = i
	}
	granPos := make(map[float64]int, len(r.Campaign.Granularities))
	for i, g := range r.Campaign.Granularities {
		granPos[g] = i
	}
	schedPos := make(map[SchedulerID]int, len(r.Campaign.Schedulers))
	for i, s := range r.Campaign.Schedulers {
		schedPos[s] = i
	}
	scnPos := positions(r.Campaign.Scenarios)
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if famPos[ra.Family] != famPos[rb.Family] {
			return famPos[ra.Family] < famPos[rb.Family]
		}
		if epsPos[ra.Epsilon] != epsPos[rb.Epsilon] {
			return epsPos[ra.Epsilon] < epsPos[rb.Epsilon]
		}
		// Scenario sorts before granularity so the ASCII writer's
		// per-(family, ε, scenario) blocks hold a scenario's whole
		// granularity curve instead of fragmenting per granularity.
		if scnPos[ra.Scenario] != scnPos[rb.Scenario] {
			return scnPos[ra.Scenario] < scnPos[rb.Scenario]
		}
		if granPos[ra.Granularity] != granPos[rb.Granularity] {
			return granPos[ra.Granularity] < granPos[rb.Granularity]
		}
		return schedPos[ra.Scheduler] < schedPos[rb.Scheduler]
	})
	return rows
}

func positions(names []string) map[string]int {
	out := make(map[string]int, len(names))
	for i, n := range names {
		out[n] = i
	}
	return out
}

// ftoa formats a float with the shortest exact representation, so emitted
// aggregates are byte-stable across runs and worker counts.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var campaignCSVHeader = []string{
	"family", "scheduler", "epsilon", "granularity", "n",
	"lb_mean", "lb_ci95", "ub_mean", "ub_ci95", "ff_mean",
	"crash_mean", "crash_ci95", "overhead_mean", "overhead_ci95", "msgs_mean",
}

// evalCampaignCSVHeader extends the classic header for campaigns carrying
// the scenario dimension. The classic header is emitted unchanged otherwise,
// so existing consumers never see surprise columns.
var evalCampaignCSVHeader = []string{
	"scenario", "trials", "success_mean", "success_ci95", "p99_mean", "p99_ci95",
}

// WriteCampaignCSV emits the aggregated campaign as CSV: one row per grid
// point with mean and 95% CI columns per metric. Evaluation campaigns gain
// scenario/success/p99 columns.
func WriteCampaignCSV(w io.Writer, r *CampaignResult) error {
	header := campaignCSVHeader
	hasEval := len(r.Campaign.Scenarios) > 0
	if hasEval {
		header = append(append([]string(nil), header...), evalCampaignCSVHeader...)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, row := range r.Rows() {
		cols := []string{
			row.Family, string(row.Scheduler),
			strconv.Itoa(row.Epsilon), ftoa(row.Granularity),
			strconv.Itoa(row.Lower.N()),
			ftoa(row.Lower.Mean()), ftoa(row.Lower.CI95()),
			ftoa(row.Upper.Mean()), ftoa(row.Upper.CI95()),
			ftoa(row.FaultFree.Mean()),
			ftoa(row.Crash.Mean()), ftoa(row.Crash.CI95()),
			ftoa(row.Overhead.Mean()), ftoa(row.Overhead.CI95()),
			ftoa(row.Messages.Mean()),
		}
		if hasEval {
			cols = append(cols,
				row.Scenario, strconv.Itoa(r.Campaign.EvalTrials),
				ftoa(row.Success.Mean()), ftoa(row.Success.CI95()),
				ftoa(row.EvalP99.Mean()), ftoa(row.EvalP99.CI95()),
			)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// campaignJSONRow is the exported JSON shape of one aggregated row.
type campaignJSONRow struct {
	Family      string   `json:"family"`
	Scheduler   string   `json:"scheduler"`
	Epsilon     int      `json:"epsilon"`
	Granularity float64  `json:"granularity"`
	N           int      `json:"n"`
	Lower       jsonStat `json:"lb"`
	Upper       jsonStat `json:"ub"`
	FaultFree   jsonStat `json:"ff"`
	Crash       jsonStat `json:"crash"`
	Overhead    jsonStat `json:"overhead"`
	Messages    jsonStat `json:"msgs"`
	// Evaluation-dimension fields, present only when the campaign set
	// Scenarios.
	Scenario string    `json:"scenario,omitempty"`
	Success  *jsonStat `json:"success,omitempty"`
	EvalP99  *jsonStat `json:"p99,omitempty"`
}

type jsonStat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

func jstat(a *stats.Accumulator) jsonStat { return jsonStat{Mean: a.Mean(), CI95: a.CI95()} }

// WriteCampaignJSON emits the aggregated campaign as a JSON document with
// the spec and one object per grid point.
func WriteCampaignJSON(w io.Writer, r *CampaignResult) error {
	rows := r.Rows()
	out := struct {
		Campaign Campaign          `json:"campaign"`
		Rows     []campaignJSONRow `json:"rows"`
	}{Campaign: r.Campaign, Rows: make([]campaignJSONRow, 0, len(rows))}
	for _, row := range rows {
		jr := campaignJSONRow{
			Family: row.Family, Scheduler: string(row.Scheduler),
			Epsilon: row.Epsilon, Granularity: row.Granularity,
			N:     row.Lower.N(),
			Lower: jstat(&row.Lower), Upper: jstat(&row.Upper),
			FaultFree: jstat(&row.FaultFree), Crash: jstat(&row.Crash),
			Overhead: jstat(&row.Overhead), Messages: jstat(&row.Messages),
		}
		if row.Scenario != "" {
			jr.Scenario = row.Scenario
			s, p := jstat(&row.Success), jstat(&row.EvalP99)
			jr.Success, jr.EvalP99 = &s, &p
		}
		out.Rows = append(out.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCampaignASCII renders the aggregate as a fixed-width table, one
// header per (family, ε) block — per (family, ε, scenario) in evaluation
// campaigns, which also gain success-rate and p99 columns.
func WriteCampaignASCII(w io.Writer, r *CampaignResult) error {
	rows := r.Rows()
	hasEval := len(r.Campaign.Scenarios) > 0
	lastBlock := ""
	for _, row := range rows {
		block := fmt.Sprintf("%s ε=%d", row.Family, row.Epsilon)
		if hasEval {
			block = fmt.Sprintf("%s scenario=%s (%d trials/cell)", block, row.Scenario, r.Campaign.EvalTrials)
		}
		if block != lastBlock {
			if lastBlock != "" {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			lastBlock = block
			if _, err := fmt.Fprintf(w, "# %s: campaign %q, m=%d, %d instances/point\n",
				block, r.Campaign.Name, r.Campaign.Procs, r.Campaign.Instances); err != nil {
				return err
			}
			cols := "%-9s %5s %4s %9s %9s %9s %9s %9s %9s"
			args := []any{"scheduler", "g", "n", "lb", "ub", "ff", "crash", "ovh%", "msgs"}
			if hasEval {
				cols += " %9s %9s"
				args = append(args, "success", "p99")
			}
			if _, err := fmt.Fprintf(w, cols+"\n", args...); err != nil {
				return err
			}
		}
		cols := "%-9s %5.2f %4d %9.3f %9.3f %9.3f %9.3f %9.2f %9.0f"
		args := []any{row.Scheduler, row.Granularity, row.Lower.N(),
			row.Lower.Mean(), row.Upper.Mean(), row.FaultFree.Mean(),
			row.Crash.Mean(), row.Overhead.Mean(), row.Messages.Mean()}
		if hasEval {
			cols += " %9.4f %9.3f"
			args = append(args, row.Success.Mean(), row.EvalP99.Mean())
		}
		if _, err := fmt.Fprintf(w, cols+"\n", args...); err != nil {
			return err
		}
	}
	return nil
}

// CampaignMetric selects which per-cell metric a derived figure plots.
type CampaignMetric string

// The plottable campaign metrics.
const (
	MetricLower    CampaignMetric = "lb"
	MetricUpper    CampaignMetric = "ub"
	MetricCrash    CampaignMetric = "crash"
	MetricOverhead CampaignMetric = "overhead"
)

func (m CampaignMetric) pick(row *AggRow) (*stats.Accumulator, error) {
	switch m {
	case MetricLower:
		return &row.Lower, nil
	case MetricUpper:
		return &row.Upper, nil
	case MetricCrash:
		return &row.Crash, nil
	case MetricOverhead:
		return &row.Overhead, nil
	default:
		return nil, fmt.Errorf("expt: unknown campaign metric %q", m)
	}
}

// CampaignFigure projects one (family, ε, metric) slice of the campaign
// into a Figure — one series per scheduler over the granularity sweep, per
// (scheduler, scenario) in evaluation campaigns — so campaign output feeds
// the existing ASCII/CSV/SVG figure writers.
func CampaignFigure(r *CampaignResult, family string, epsilon int, metric CampaignMetric) (*Figure, error) {
	ylabel := "Normalized Latency"
	if metric == MetricOverhead {
		ylabel = "Average OverHead (%)"
	}
	f := &Figure{
		Title:  fmt.Sprintf("%s %s, ε=%d, m=%d", family, metric, epsilon, r.Campaign.Procs),
		XLabel: "Granularity", YLabel: ylabel,
	}
	type curve struct {
		scheduler SchedulerID
		scenario  string
	}
	series := make(map[curve]*stats.Series)
	for _, row := range r.Rows() {
		if row.Family != family || row.Epsilon != epsilon {
			continue
		}
		acc, err := metric.pick(row)
		if err != nil {
			return nil, err
		}
		k := curve{row.Scheduler, row.Scenario}
		s, ok := series[k]
		if !ok {
			name := fmt.Sprintf("%s-%s", row.Scheduler, metric)
			if row.Scenario != "" {
				name += " " + row.Scenario
			}
			s = stats.NewSeries(name)
			series[k] = s
			f.Series = append(f.Series, s)
		}
		// Re-accumulate the already aggregated mean so the series point
		// carries the campaign's per-point average.
		s.At(row.Granularity).Add(acc.Mean())
	}
	if len(f.Series) == 0 {
		return nil, fmt.Errorf("expt: campaign has no rows for family %q ε=%d", family, epsilon)
	}
	return f, nil
}
