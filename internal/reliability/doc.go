// Package reliability implements the failure-probability extension sketched
// in the paper's conclusion ("we want to study a more complex failure model,
// in which we would also account for the failure probability of the
// application"): processors fail independently following exponential laws,
// and we quantify the probability that a fault-tolerant schedule delivers a
// result.
//
// The package holds the closed-form estimate: a schedule tolerating ε
// crash-at-start failures survives every scenario with at most ε failed
// processors (Theorem 4.1), so P(survival) >= P(at most ε of m processors
// fail during the mission). SurvivalLowerBound computes that binomial tail;
// the serving layer reports it per /schedule request (cheap, deterministic,
// cacheable).
//
// The sampled estimate is sim.Evaluate under the exp:λ scenario kind
// (sim.ScenarioSpec{Kind: "exp", Lambda: λ}): it draws crash times from the
// same law and replays the schedule, capturing mid-execution crashes and the
// exact communication pattern. See Example_reliability in the root package
// and the /evaluate endpoint.
package reliability
