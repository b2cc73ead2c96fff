// Package sched defines the fault-tolerant schedule representation shared by
// the FTSA, MC-FTSA and FTBAR schedulers: replica placements with optimistic
// (equation 1) and pessimistic (equation 3) time windows, per-processor
// timelines, the retained communication pattern, the latency bounds of
// equations (2) and (4), and structural validation of the fault-tolerance
// guarantees (Propositions 4.1 and 4.3).
//
// A Schedule is built incrementally by Place-ing each task's ε+1 replicas in
// mapping order; Validate then checks completeness, precedence feasibility,
// replica distinctness and (under the matched pattern) robustness of the
// retained communications. The package also provides derived views consumed
// by the CLIs and the serving layer: aggregate Metrics (replication factor,
// communication volume, utilization), ASCII Gantt rendering, deadline
// assignment (Section 4.3), and a validating JSON wire format that binds a
// loaded schedule back to its problem instance.
//
// The scheduler registry is the only way to run a scheduler: Run resolves a
// name, checks RunOptions against the registration and calls the
// scheduler's registered function (see Func). MaxToleratedFailures, the
// ε search of Section 4.3 under a latency budget, probes through Run.
package sched
