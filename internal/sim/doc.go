// Package sim executes a fault-tolerant schedule under a fail-stop failure
// scenario and reports the achieved latency — the "Crash" curves of
// Figures 1(b), 2(b), 3(b) and 4(a) of the paper. Processors are fail-silent:
// a replica whose execution completes strictly before its processor's crash
// time has delivered its output messages; anything in flight at crash time
// is lost. A replica consumes a predecessor's data per the schedule's
// communication pattern: under PatternAll the earliest message from any
// completed copy ("the task is executed and ignores later incoming data"),
// under PatternMatched only the single matched source retained by MC-FTSA.
//
// Two entry points share one pooled replay core:
//
//   - Run / RunWithOptions replay a single hand-built Scenario (crash-time
//     assignments: NoFailures, CrashAtZero, UniformCrashes, or one draw of
//     any ScenarioGenerator), with optional communication models (one-port,
//     bounded multi-port) and event tracing.
//   - Evaluate is the batch fault-injection engine: it replays a schedule
//     under thousands of scenarios drawn from a ScenarioGenerator (uniform,
//     exponential, Weibull, correlated rack groups, bursts, rolling
//     outages, recorded traces), in chunks on par.For's workers with
//     deterministic per-trial seeding (TrialSeed), and streams the outcomes
//     into an EvalResult — success rate with a Wilson interval, latency
//     mean/p50/p99, and a degradation-vs-failure-count histogram — in O(1)
//     memory per trial.
//
// ScenarioSpec is the serializable description of a generator shared by the
// /evaluate service endpoint, the ftexp campaign axis and ftsched -scenario.
// Its Generator() is the only way to a generator: each kind is one row of
// the scenario-kind table (registry.go), whose check validates a spec and
// whose fill draws one scenario; only trace builds a generator of its own.
//
// The replay core freezes the schedule's graph once (dag.Flat) and walks the
// CSR predecessor arrays per replica; combined with pooled replayer scratch,
// a warm replay allocates nothing (BenchmarkReplay), which is what keeps
// Evaluate O(1) in trials.
package sim
