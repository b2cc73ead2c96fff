package service

import (
	"fmt"
	"io"

	"ftsched/internal/mission"
	"ftsched/internal/sim"
)

// EvaluateRequest is the body of POST /evaluate: a full scheduling request
// plus the fault-injection batch to run against the resulting schedule. The
// response is a pure function of the request (per-trial seeds derive from
// eval_seed), so it is fingerprint-cached exactly like /schedule.
type EvaluateRequest struct {
	ScheduleRequest
	// Trials is the number of failure scenarios to sample (bounded by the
	// server's -max-trials).
	Trials int `json:"trials"`
	// Scenario selects the failure-scenario generator, e.g.
	// {"kind": "uniform", "crashes": 2} or {"kind": "weibull", "shape": 1.5,
	// "scale": 2000}. See sim.ScenarioSpec for every kind.
	Scenario sim.ScenarioSpec `json:"scenario"`
	// EvalSeed is the base seed of the per-trial scenario draws; equal
	// seeds reproduce the evaluation bit for bit at any worker count.
	EvalSeed int64 `json:"eval_seed,omitempty"`
	// Policies, when non-empty, additionally scores each listed mission
	// policy ("static", "reschedule") on the same scenario draws, so the
	// response reports offline-vs-online success and latency side by side.
	// "static" reproduces Eval exactly (a static mission is a replay);
	// "reschedule" re-plans the surviving suffix after every crash.
	Policies []string `json:"policies,omitempty"`
	// WorstCase, when present, additionally runs a budgeted adversarial
	// search over crash patterns and reports the most damaging one found —
	// a deterministic worst-case column next to Eval's Monte-Carlo mean.
	// See sim.AdversarySpec for the budget knobs.
	WorstCase *sim.AdversarySpec `json:"worst_case,omitempty"`
}

// PolicyEvalResult is one mission policy's score inside an /evaluate
// response.
type PolicyEvalResult struct {
	Policy string         `json:"policy"`
	Eval   sim.EvalResult `json:"eval"`
}

// EvaluateResponse is the body of a successful POST /evaluate.
type EvaluateResponse struct {
	// Scheduler is the algorithm's display name (e.g. "MC-FTSA").
	Scheduler string `json:"scheduler"`
	Epsilon   int    `json:"epsilon"`
	Tasks     int    `json:"tasks"`
	Procs     int    `json:"procs"`
	// Pattern is the communication pattern, "all" or "matched".
	Pattern string `json:"pattern"`
	// LowerBound and UpperBound are the schedule's latency bounds
	// (equations 2 and 4) — the frame the simulated latencies live in.
	LowerBound float64 `json:"lower_bound"`
	UpperBound float64 `json:"upper_bound"`
	// Scenario is the canonical spec string of the generator that ran.
	Scenario string `json:"scenario"`
	// Eval is the aggregated fault-injection result: success rate with its
	// Wilson interval, latency summary, degradation histogram.
	Eval sim.EvalResult `json:"eval"`
	// PolicyEval, present when the request listed policies, scores each
	// mission policy on the same scenario draws as Eval, in request order.
	PolicyEval []PolicyEvalResult `json:"policy_eval,omitempty"`
	// WorstCase, present when the request asked for it, is the adversarial
	// search's result: the most damaging crash pattern found within budget.
	WorstCase *sim.WorstCaseResult `json:"worst_case,omitempty"`
}

// DecodeEvaluateRequest reads and validates one /evaluate request body, with
// the same strictness as DecodeScheduleRequest (unknown fields rejected, one
// JSON document only).
func DecodeEvaluateRequest(r io.Reader) (*EvaluateRequest, error) {
	return readInto(new(EvaluateRequest), r)
}

// Validate cross-checks the decoded request: the scheduling part first, then
// the evaluation batch.
func (req *EvaluateRequest) Validate() error {
	if err := req.ScheduleRequest.Validate(); err != nil {
		return err
	}
	if err := req.rejectScheduleOnlyFields("/evaluate"); err != nil {
		return err
	}
	if req.Trials < 1 {
		return fmt.Errorf("need trials >= 1, got %d", req.Trials)
	}
	if err := req.checkScenario(req.Scenario); err != nil {
		return err
	}
	seen := make(map[string]bool, len(req.Policies))
	for _, p := range req.Policies {
		if p != string(mission.PolicyStatic) && p != string(mission.PolicyReschedule) {
			return fmt.Errorf("policies: unknown policy %q (want %q or %q)",
				p, mission.PolicyStatic, mission.PolicyReschedule)
		}
		if seen[p] {
			return fmt.Errorf("policies: %q listed twice", p)
		}
		seen[p] = true
	}
	if req.WorstCase != nil {
		// The adversarial search replays the static schedule; combining it
		// with mission-policy scoring would silently report a worst case the
		// policies never face, so the combination is rejected outright.
		if len(req.Policies) > 0 {
			return fmt.Errorf("worst_case cannot be combined with policies")
		}
		if err := req.WorstCase.Validate(); err != nil {
			return fmt.Errorf("worst_case: %w", err)
		}
	}
	return nil
}

// EvaluateFingerprint digests everything an /evaluate response depends on:
// the instance, the canonicalized scheduling parameters (policy defaults and
// ignored seeds folded exactly like RequestFingerprint) and the evaluation
// batch. The "evaluate" domain tag keeps the keyspace disjoint from
// /schedule, so the two endpoints share one response cache safely.
func EvaluateFingerprint(req *EvaluateRequest) Fingerprint {
	f := instanceOf(&req.Instance)
	f.str("evaluate")
	f.str(req.canonicalScheduler())
	f.i64(int64(req.Epsilon))
	policy, seed := req.canonicalPolicySeed()
	f.str(policy)
	f.i64(seed)
	f.i64(int64(req.Trials))
	f.str(req.Scenario.String())
	f.i64(req.EvalSeed)
	// Only a non-empty policy list contributes, so every pre-existing
	// /evaluate request keeps its fingerprint (cache keys are stable across
	// releases).
	if len(req.Policies) > 0 {
		f.str("policies")
		f.i64(int64(len(req.Policies)))
		for _, p := range req.Policies {
			f.str(p)
		}
	}
	// Same pattern for the adversarial search: only a present worst_case
	// contributes, and its String() is the normalized form, so an omitted
	// knob and its explicit default share one cache entry.
	if req.WorstCase != nil {
		f.str("worst_case")
		f.str(req.WorstCase.String())
	}
	return f.sum()
}
