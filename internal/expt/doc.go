// Package expt is the experiment layer: it reproduces the paper's
// evaluation (Section 6) and runs large parameter-sweep campaigns on a
// parallel, resumable engine.
//
// # Campaign engine
//
// A Campaign declares a grid: the cross product of schedulers (FTSA,
// MC-FTSA, FTBAR), ε values, granularities, workload families and instance
// indices. RunCampaign executes the grid on a pool of workers (GOMAXPROCS
// by default) and aggregates per-cell metrics — normalized lower/upper
// bounds, fault-free latency, crash latency under a per-cell uniform crash
// scenario, overhead, and message counts — into per-point mean/95%-CI rows.
//
// Setting Campaign.Scenarios adds a failure-scenario dimension: each cell
// runs a Monte-Carlo fault-injection batch (sim.Evaluate, EvalTrials
// deterministic trials) instead of the single crash replay, so one grid can
// sweep whole failure families (uniform crashes, exponential or Weibull
// lifetimes, rack groups, bursts, rolling outages) and the aggregate gains
// success-rate and p99 columns. Every scheduler of one grid point shares
// the failure sample, extending the like-for-like discipline below.
//
// Three properties make campaigns production-grade:
//
//   - Determinism. Every cell derives its RNG seeds (instance generation,
//     scheduler tie-breaking, fault-free baseline, crash scenario) from the
//     campaign seed and its own grid coordinates, and aggregation consumes
//     results in canonical cell order. The output is therefore a pure
//     function of the spec: any -parallel value, any interleaving, and any
//     interrupt/resume boundary produce byte-identical aggregates.
//   - Resumability. With a checkpoint path set, each completed cell streams
//     to a JSONL file (header line carrying the spec fingerprint, then one
//     JSON object per cell). Resuming validates the fingerprint, loads the
//     completed cells — tolerating the torn final line an interrupt leaves
//     behind — and executes only the remainder.
//   - Shared instances. Schedulers and ε values at one grid point see the
//     same problem instance and the same crash draw (like the paper's
//     shared-workload batches), so curves compare like against like.
//
// Results feed WriteCampaignCSV/JSON/ASCII directly, or project through
// CampaignFigure into the Figure writers (WriteASCII, WriteCSV, WriteSVG)
// for plotting one (family, ε, metric) slice, one curve per scheduler (and
// per scenario in evaluation campaigns).
//
// # Paper figures, tables and studies
//
// The paper's panels are campaign presets, not separate drivers:
// FigureCampaign(n) is PaperCampaign with ε ∈ {0, ε}, one uniform:k scenario
// per plotted crash count and a single trial per cell (the paper's one crash
// draw per graph) — Figures 1-3 for ε = 1, 2, 5 on 20 processors, Figure 4
// for FTSA alone on 5 processors with ε = 2 — and FigurePanels projects its
// result onto the paper's (a) bounds, (b) crash-latency and (c) overhead
// panels under the paper's legend names. Each point averages a batch of
// random task graphs (60 in the paper) over the granularity sweep 0.2..2.0.
// PaperCampaign covers the Figure 1-3 sweeps as one aggregate table, and
// FamiliesCampaign is experiment X5: the same schedulers on the structured
// task-graph families.
//
// Three studies measure what a cell does not carry and stay single-threaded
// functions: RunTable1 (wall-clock running times for v up to 5000 tasks on
// 50 processors), RunStarvation (X4: every single crash replayed under
// strict matched-only communication) and RunCommModels (X6: one-port and
// multi-port replay). They build instances from the same workload definition
// and reach schedulers through the same registry dispatch as a cell.
//
// Latencies are reported normalized by a per-instance constant (see
// normalizer); the paper plots "normalized latency" without defining the
// normalizer, and any per-instance constant preserves which algorithm wins.
package expt
