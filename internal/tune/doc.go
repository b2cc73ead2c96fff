// Package tune is the configuration-search layer of ftsched: given one
// workload (DAG + platform + cost matrix), a failure scenario and a
// reliability target, it answers the question the rest of the system leaves
// to the user — which scheduler, ε and policy should I run?
//
// The search space is the candidate grid derived from the scheduler
// registry's capability surface (DeriveCandidates): every registered
// scheduler × an ε ladder (fault-tolerant schedulers only) × the policies
// its registration declares worth sweeping. Each candidate is scheduled
// through the shared placement path (sched.Run with one shared bottom-level
// computation) and scored by the Monte-Carlo failure-injection engine
// (sim.Evaluate). The output is the Pareto frontier of
// (expected latency, success probability) plus a recommended point for the
// caller's reliability target.
//
// Three properties shape the implementation:
//
//   - Determinism. Candidates run on par.For's workers (the loop the expt
//     engine runs on), but every candidate derives its scheduling seed from the
//     base seed and its own coordinates by FNV-1a, and results aggregate in
//     grid order — so Run's output, serialized, is byte-identical at any
//     Workers value.
//
//   - Common random numbers. Every candidate is evaluated under the same
//     evaluation seed, which (via sim.TrialSeed) means trial t draws the
//     identical failure scenario for every candidate. Differences between
//     candidates are therefore differences between schedules, not between
//     failure samples — the paired-comparison discipline the campaign
//     engine's evalSeed uses.
//
//   - Successive halving. A cheap low-trial screen runs first; a candidate
//     is pruned before the full-trial phase only when some other candidate
//     dominates it pessimistically, under either of two conservative tests.
//     The paired test exploits the shared draws directly: on the discordant
//     screen trials the dominator must be strictly more reliable (a clean
//     sweep of enough trials, or a 95% sign test when it lost a few), and
//     no slower with confidence (whole paired-latency interval at or below
//     zero) on the trials both survived. The marginal test requires the
//     dominator's whole 95% Wilson success interval and whole
//     expected-latency interval to clear the candidate's in both
//     objectives. Both tests are statistical, so frontier preservation is
//     a high-confidence property, not an absolute guarantee — the tests
//     pin it across seeded workload grids (and ScreenTrials >= Trials
//     forces the exact naive sweep) — while pruning evaluates a fraction
//     of the trials.
package tune
