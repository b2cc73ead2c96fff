// Package reliability implements the failure-probability extension sketched
// in the paper's conclusion ("we want to study a more complex failure model,
// in which we would also account for the failure probability of the
// application"): processors fail independently following exponential laws,
// and we quantify the probability that a fault-tolerant schedule delivers a
// result.
//
// Two estimators are provided:
//
//   - an exact combinatorial bound: a schedule tolerating ε crash-at-start
//     failures survives every scenario with at most ε failed processors, so
//     P(survival) >= P(at most ε of m processors fail during the mission);
//   - a Monte-Carlo estimator that samples crash times and replays the
//     schedule through the simulator, capturing mid-execution crashes and
//     the exact communication pattern.
//
// The combinatorial bound is what the serving layer reports per /schedule
// request (cheap, deterministic, cacheable). The Monte-Carlo estimator is a
// seed-deterministic view over the batch evaluation engine:
// Exponential.Generator() is the exp scenario spec's sim.ScenarioGenerator
// (an error for a non-positive rate), and MonteCarlo delegates to
// sim.Evaluate with it, so MonteCarlo(seed, ...) agrees trial for trial with
// Evaluate at the same seed — one sampling loop for the whole system (see
// Example_reliability in the root package and the /evaluate endpoint).
package reliability
