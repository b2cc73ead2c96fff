package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"ftsched/internal/lazyrand"
	"ftsched/internal/sim"
)

// Request is one synthesized API call.
type Request struct {
	// Index is the request's position in the global stream; the request is
	// a pure function of (synthesizer, Index).
	Index uint64
	// Endpoint is "schedule", "evaluate" or "tune"; Path is the URL path.
	Endpoint string
	Path     string
	// Rank is the zipf rank of the instance the request targets.
	Rank int
	// Body is the JSON request body.
	Body []byte
}

// Synthesizer turns a global request index into a fully formed API request:
// a seeded per-index rng picks the endpoint by profile weight, the instance
// by zipf rank, and every parameter from the profile's pools. Because the
// derivation uses only (seed, index), any set of workers consuming indices
// 0..R-1 issues exactly the same request multiset — the property that makes
// deterministic reports independent of worker count.
type Synthesizer struct {
	corpus    *Corpus
	profile   Profile
	zipf      *Zipf
	seed      int64
	scenarios []sim.ScenarioSpec // parsed once from profile.EvalScenarios
	wSchedule float64            // cumulative endpoint weights, normalized
	wEvaluate float64
}

// NewSynthesizer validates the profile against the corpus and precomputes
// the zipf CDF and scenario specs.
func NewSynthesizer(corpus *Corpus, profile Profile, zipfS float64, seed int64) (*Synthesizer, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	for _, eps := range profile.Epsilons {
		if eps+1 > corpus.Procs() {
			return nil, fmt.Errorf("load: profile %q draws epsilon %d, but the corpus platform has only %d processors",
				profile.Name, eps, corpus.Procs())
		}
	}
	z, err := NewZipf(corpus.Size(), zipfS)
	if err != nil {
		return nil, err
	}
	sy := &Synthesizer{corpus: corpus, profile: profile, zipf: z, seed: seed}
	for _, s := range profile.EvalScenarios {
		sp, err := sim.ParseScenarioSpec(s)
		if err != nil {
			return nil, err // unreachable after Validate, kept for safety
		}
		sy.scenarios = append(sy.scenarios, sp)
	}
	total := profile.Weights.Schedule + profile.Weights.Evaluate + profile.Weights.Tune
	sy.wSchedule = profile.Weights.Schedule / total
	sy.wEvaluate = sy.wSchedule + profile.Weights.Evaluate/total
	return sy, nil
}

// requestSeed derives the per-index rng seed by FNV-1a over the base seed
// and the index — the same stable-hash discipline sim.TrialSeed and the
// campaign engine use.
func requestSeed(base int64, index uint64) int64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for v, i := uint64(base), 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= prime
	}
	for v, i := index, 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= prime
	}
	return int64(h &^ (1 << 63))
}

// Wire shapes of the request parameters — everything in a body but the
// instance. They mirror the service's decode structs field by field, in
// struct order, so a body passes the strict decoders (unknown fields
// refused).
type scheduleParams struct {
	Scheduler string `json:"scheduler"`
	Epsilon   int    `json:"epsilon"`
	Seed      int64  `json:"seed,omitempty"`
}

type evaluateParams struct {
	scheduleParams
	Trials   int              `json:"trials"`
	Scenario sim.ScenarioSpec `json:"scenario"`
	EvalSeed int64            `json:"eval_seed,omitempty"`
}

type tuneParams struct {
	Scenario sim.ScenarioSpec `json:"scenario"`
	Trials   int              `json:"trials"`
	Target   float64          `json:"target"`
	Epsilons []int            `json:"epsilons"`
	EvalSeed int64            `json:"eval_seed,omitempty"`
}

// Request synthesizes the request at the given stream index.
func (sy *Synthesizer) Request(index uint64) (*Request, error) {
	rng := lazyrand.New(requestSeed(sy.seed, index))
	u := rng.Float64()
	rank := sy.zipf.Sample(rng)
	item := &sy.corpus.items[rank]
	p := &sy.profile

	req := &Request{Index: index, Rank: rank}
	var params any
	switch {
	case u < sy.wSchedule:
		req.Endpoint, req.Path = "schedule", "/schedule"
		params = sy.drawSchedule(rng)
	case u < sy.wEvaluate:
		req.Endpoint, req.Path = "evaluate", "/evaluate"
		params = &evaluateParams{
			scheduleParams: *sy.drawSchedule(rng),
			Trials:         p.EvalTrials[rng.Intn(len(p.EvalTrials))],
			Scenario:       sy.scenarios[rng.Intn(len(sy.scenarios))],
			EvalSeed:       p.EvalSeeds[rng.Intn(len(p.EvalSeeds))],
		}
	default:
		req.Endpoint, req.Path = "tune", "/tune"
		params = &tuneParams{
			Scenario: sy.scenarios[rng.Intn(len(sy.scenarios))],
			Trials:   p.TuneTrials,
			Target:   p.TuneTarget,
			Epsilons: p.TuneEpsilons,
			EvalSeed: p.EvalSeeds[rng.Intn(len(p.EvalSeeds))],
		}
	}
	// The instance is 99 % of a body and already compact JSON: splice it in
	// front of the encoded parameters rather than push it through the
	// encoder, which would re-validate and re-compact all of it per request.
	// The bytes are what encoding the whole body as one struct gives.
	var tail bytes.Buffer
	enc := json.NewEncoder(&tail)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(params); err != nil {
		return nil, fmt.Errorf("load: marshaling request %d: %w", index, err)
	}
	body := make([]byte, 0, len(item.graph)+len(item.platform)+len(item.costs)+tail.Len()+32)
	body = append(append(body, `{"graph":`...), item.graph...)
	body = append(append(body, `,"platform":`...), item.platform...)
	body = append(append(body, `,"costs":`...), item.costs...)
	body = append(append(body, ','), tail.Bytes()[1:]...) // the parameters' members, minus their '{'
	req.Body = body
	return req, nil
}

// drawSchedule draws the scheduling-parameter block shared by /schedule
// and /evaluate bodies. Schedulers the registry marks non-fault-tolerant
// must carry ε = 0; the profile encodes that as the "heft" special case so
// the synthesizer needs no registry import.
func (sy *Synthesizer) drawSchedule(rng *rand.Rand) *scheduleParams {
	p := &sy.profile
	scheduler := p.Schedulers[rng.Intn(len(p.Schedulers))]
	eps := p.Epsilons[rng.Intn(len(p.Epsilons))]
	if scheduler == "heft" {
		eps = 0
	}
	return &scheduleParams{
		Scheduler: scheduler,
		Epsilon:   eps,
		Seed:      p.Seeds[rng.Intn(len(p.Seeds))],
	}
}
