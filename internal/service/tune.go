package service

import (
	"fmt"
	"io"

	"ftsched/internal/sim"
	"ftsched/internal/tune"
)

// TuneRequest is the body of POST /tune: a problem instance plus a scoring
// scenario and search budget. The candidate grid is derived server-side from
// the scheduler registry's capability surface (every registered scheduler ×
// the ε ladder × its sweep policies), so a client never has to know which
// schedulers this binary serves. The response is a pure function of the
// request and the registry, so it is fingerprint-cached under the "tune"
// domain exactly like /schedule and /evaluate.
type TuneRequest struct {
	Instance
	// Scenario is the failure scenario every candidate is scored under.
	Scenario sim.ScenarioSpec `json:"scenario"`
	// Trials is the full-fidelity evaluation budget per candidate (bounded
	// by the server's -max-trials).
	Trials int `json:"trials"`
	// ScreenTrials is the successive-halving screening budget; 0 picks
	// Trials/8 (at least 16), >= Trials disables pruning.
	ScreenTrials int `json:"screen_trials,omitempty"`
	// Target is the success probability the recommendation must meet.
	Target float64 `json:"target"`
	// Epsilons is the ε ladder of the derived grid; empty means the default
	// ladder 1, 2, 5 (entries no scheduler can realize on the platform are
	// skipped, so one ladder serves every platform size; duplicates are
	// rejected).
	Epsilons []int `json:"epsilons,omitempty"`
	// EvalSeed is the base seed of the search; equal seeds reproduce the
	// tuning run bit for bit at any worker count.
	EvalSeed int64 `json:"eval_seed,omitempty"`
	// WorstCase, when present, additionally runs a budgeted adversarial
	// search on every candidate that reaches the full pass, reporting the
	// worst crash pattern found next to each Monte-Carlo score.
	WorstCase *sim.AdversarySpec `json:"worst_case,omitempty"`
	// Robust makes the recommendation optimize the adversarial worst case
	// instead of the Monte-Carlo mean; it requires worst_case.
	Robust bool `json:"robust,omitempty"`

	// cands memoizes the derived candidate grid: the guard, the per-scheduler
	// counters, the fingerprint and the search itself all need it, and one
	// request's lifecycle is sequential, so deriving once is safe and keeps
	// the three call sites structurally incapable of disagreeing.
	cands []tune.Candidate
}

// TuneResponse is the body of a successful POST /tune.
type TuneResponse struct {
	Tasks int `json:"tasks"`
	Procs int `json:"procs"`
	// Result is the tuner's full scorecard: every candidate in grid order,
	// the Pareto frontier of (expected latency, success probability) and the
	// recommended operating point for the requested target.
	Result tune.Result `json:"result"`
}

// DecodeTuneRequest reads and validates one /tune request body with the same
// strictness as the other endpoints (unknown fields rejected, one JSON
// document only).
func DecodeTuneRequest(r io.Reader) (*TuneRequest, error) {
	return readInto(new(TuneRequest), r)
}

// Validate cross-checks the decoded request; tune.Run re-validates the
// assembled spec, so this only has to produce good 400s for the wire-level
// mistakes.
func (req *TuneRequest) Validate() error {
	if err := req.validate(); err != nil {
		return err
	}
	if req.Trials < 1 {
		return fmt.Errorf("need trials >= 1, got %d", req.Trials)
	}
	if req.ScreenTrials < 0 {
		return fmt.Errorf("need screen_trials >= 0, got %d", req.ScreenTrials)
	}
	if req.Target < 0 || req.Target > 1 {
		return fmt.Errorf("target must be a probability in [0, 1], got %g", req.Target)
	}
	// Ladder entries no scheduler can realize on the platform are skipped by
	// DeriveCandidates (one ladder serves every platform size), but
	// duplicates would derive duplicate candidates — a client mistake worth
	// a 400, not a deep search error.
	seen := make(map[int]bool, len(req.Epsilons))
	for _, eps := range req.Epsilons {
		if eps < 0 {
			return fmt.Errorf("epsilons must be >= 0, got %d", eps)
		}
		if seen[eps] {
			return fmt.Errorf("epsilons has duplicate entry %d", eps)
		}
		seen[eps] = true
	}
	if err := req.checkScenario(req.Scenario); err != nil {
		return err
	}
	if req.WorstCase != nil {
		if err := req.WorstCase.Validate(); err != nil {
			return fmt.Errorf("worst_case: %w", err)
		}
	} else if req.Robust {
		return fmt.Errorf("robust requires worst_case")
	}
	return nil
}

// candidates derives the request's candidate grid — the registry surface
// crossed with the ε ladder — memoized on the request (a request's
// lifecycle is sequential: guard, counters, fingerprint, then the search).
func (req *TuneRequest) candidates() []tune.Candidate {
	if req.cands == nil {
		req.cands = tune.DeriveCandidates(req.Platform.NumProcs(), req.Epsilons)
	}
	return req.cands
}

// TuneFingerprint digests everything a /tune response depends on: the
// instance, the derived candidate grid (which pins the registry contents at
// fingerprint time), the scenario and the search budget. The "tune" domain
// tag keeps the keyspace disjoint from /schedule and /evaluate inside the
// shared response cache.
func TuneFingerprint(req *TuneRequest) Fingerprint {
	f := instanceOf(&req.Instance)
	f.str("tune")
	cands := req.candidates()
	f.u64(uint64(len(cands)))
	for _, c := range cands {
		f.str(c.Scheduler)
		f.i64(int64(c.Epsilon))
		f.str(c.Policy)
	}
	f.str(req.Scenario.String())
	f.i64(int64(req.Trials))
	f.i64(int64(req.ScreenTrials))
	f.f64(req.Target)
	f.i64(req.EvalSeed)
	// Only a present worst_case (and an enabled robust switch) contribute,
	// so every pre-existing /tune request keeps its cache key.
	if req.WorstCase != nil {
		f.str("worst_case")
		f.str(req.WorstCase.String())
	}
	if req.Robust {
		f.str("robust")
	}
	return f.sum()
}

// runTune is the /tune cache-miss path: run the search, serialize. Like
// /evaluate, the search runs single-worker inside the job — request-level
// parallelism is the serving layer's pool — and the result is worker-count
// independent by construction either way.
func (s *Server) runTune(req *TuneRequest) ([]byte, error) {
	res, err := tune.Run(tune.Spec{
		Graph:        req.Graph,
		Platform:     req.Platform,
		Costs:        req.Costs,
		BottomLevels: req.bottomLevels(),
		Candidates:   req.candidates(),
		Scenario:     req.Scenario,
		Trials:       req.Trials,
		ScreenTrials: req.ScreenTrials,
		Target:       req.Target,
		Seed:         req.EvalSeed,
		Workers:      1,
		WorstCase:    req.WorstCase,
		Robust:       req.Robust,
	})
	if err != nil {
		return nil, err
	}
	return Encode(&TuneResponse{
		Tasks:  req.Graph.NumTasks(),
		Procs:  req.Platform.NumProcs(),
		Result: *res,
	})
}
