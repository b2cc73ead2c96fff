package tune

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"ftsched/internal/dag"
	"ftsched/internal/lazyrand"
	"ftsched/internal/par"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
)

// wilsonZ is the z-score of the 95% intervals the pruning rule compares —
// the same confidence level sim.Evaluate reports.
const wilsonZ = 1.96

// pruneMinWins is the success margin the sample-path pruning test demands:
// the dominator must have survived at least this many screen trials the
// pruned candidate lost, with zero trials won the other way. n wins against
// zero losses is a sign test at significance 2^-n; 4 clears the same 95%
// level the interval test uses and in practice keeps a screened-out
// candidate from overtaking its dominator's success rate on the full run.
const pruneMinWins = 4

// Spec describes one auto-tuning run: the workload, the candidate grid, the
// failure scenario every candidate is scored under, and the search budget.
type Spec struct {
	// Graph, Platform and Costs are the workload, shared by every candidate.
	Graph    *dag.Graph
	Platform *platform.Platform
	Costs    *platform.CostModel
	// Candidates is the explicit grid; empty derives it from the scheduler
	// registry via DeriveCandidates(NumProcs, Epsilons).
	Candidates []Candidate
	// Epsilons is the ε ladder of the derived grid (ignored when Candidates
	// is set); empty means DefaultEpsilons.
	Epsilons []int
	// Scenario is the failure-scenario generator every candidate is
	// evaluated under. Shared evaluation seeding makes trial t draw the
	// identical scenario for every candidate.
	Scenario sim.ScenarioSpec
	// Trials is the full-fidelity evaluation budget per candidate.
	Trials int
	// ScreenTrials is the cheap screening budget of the successive-halving
	// pass: every candidate is first evaluated on this many trials, and only
	// candidates no other candidate pessimistically dominates proceed to the
	// full Trials. 0 picks Trials/8 (at least 16); a value >= Trials
	// disables pruning and runs the naive full sweep.
	ScreenTrials int
	// Target is the success probability the recommendation must meet,
	// e.g. 0.99.
	Target float64
	// Seed is the base seed: per-candidate scheduling seeds and the shared
	// evaluation seed derive from it by FNV-1a, so the result is a pure
	// function of the spec.
	Seed int64
	// Workers is the candidate-level worker-pool size (<= 0 means
	// GOMAXPROCS). The aggregated result is byte-identical for every value.
	Workers int
	// BottomLevels, when non-nil, supplies the workload's precomputed static
	// bottom levels (sched.AvgBottomLevels). Nil computes them once per
	// Run; either way all candidates share one slice.
	BottomLevels []float64
	// WorstCase, when non-nil, additionally runs a budgeted adversarial
	// search (sim.WorstCase) on every candidate that survives to the full
	// pass, reporting a deterministic worst-case column next to the
	// Monte-Carlo mean.
	WorstCase *sim.AdversarySpec
	// Robust switches the recommendation to worst-case optimization: among
	// candidates meeting Target, pick the one whose adversarial worst case
	// is mildest (survived beats missed, then lowest worst latency) instead
	// of the one with the best Monte-Carlo mean. Requires WorstCase.
	Robust bool
}

// Eval is the tuner's summary of one sim.Evaluate batch: the success
// probability with its 95% Wilson interval, and the latency of successful
// trials with the 95% interval of its mean (zero-valued when nothing
// succeeded).
type Eval struct {
	Trials      int     `json:"trials"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	SuccessLow  float64 `json:"success_low"`
	SuccessHigh float64 `json:"success_high"`
	LatencyMean float64 `json:"latency_mean"`
	LatencyP99  float64 `json:"latency_p99"`
	// LatencyMeanLow/High bound the expected latency (z·σ/√n around the
	// mean); the pruning rule compares these whole intervals.
	LatencyMeanLow  float64 `json:"latency_mean_low"`
	LatencyMeanHigh float64 `json:"latency_mean_high"`
}

func newEval(r *sim.EvalResult) Eval {
	e := Eval{
		Trials:      r.Trials,
		Successes:   r.Successes,
		SuccessRate: r.SuccessRate,
		SuccessLow:  r.SuccessLow,
		SuccessHigh: r.SuccessHigh,
	}
	if lo, hi, ok := r.LatencyMeanInterval(wilsonZ); ok {
		e.LatencyMean = r.Latency.Mean
		e.LatencyP99 = r.Latency.P99
		e.LatencyMeanLow, e.LatencyMeanHigh = lo, hi
	}
	return e
}

// CandidateResult is one candidate's scorecard. Screen is present whenever a
// screening pass ran; Full is absent exactly when the candidate was pruned.
type CandidateResult struct {
	Candidate
	// LowerBound and UpperBound are the schedule's deterministic latency
	// bounds (equations 2 and 4) — the frame the simulated latencies live in.
	LowerBound float64 `json:"lower_bound"`
	UpperBound float64 `json:"upper_bound"`
	Screen     *Eval   `json:"screen,omitempty"`
	Pruned     bool    `json:"pruned,omitempty"`
	Full       *Eval   `json:"full,omitempty"`
	// Frontier marks membership in the Pareto frontier of
	// (expected latency, success probability) over the full evaluations.
	Frontier bool `json:"frontier,omitempty"`
	// WorstCase is the candidate's adversarial search result, present
	// exactly when the spec asked for one and the candidate reached the
	// full pass (pruned candidates are not searched).
	WorstCase *sim.WorstCaseResult `json:"worst_case,omitempty"`
}

// Result is a completed tuning run. Serialized with encoding/json it is
// byte-identical across worker counts at equal spec — the property the
// serving layer's byte-exact response cache relies on.
type Result struct {
	// Scenario is the canonical spec string of the scoring scenario.
	Scenario string `json:"scenario"`
	// Trials and ScreenTrials echo the resolved budgets.
	Trials       int     `json:"trials"`
	ScreenTrials int     `json:"screen_trials"`
	Target       float64 `json:"target"`
	Seed         int64   `json:"seed"`
	// Candidates holds every grid point in grid order, pruned ones included.
	Candidates []CandidateResult `json:"candidates"`
	// Frontier indexes Candidates, ascending in expected latency. Frontier
	// points are exactly the non-dominated full evaluations.
	Frontier []int `json:"frontier"`
	// Recommended indexes Candidates: the cheapest frontier point whose
	// success rate meets Target when one exists (TargetMet true), otherwise
	// the most reliable point; -1 when no candidate survived any trial.
	Recommended int  `json:"recommended"`
	TargetMet   bool `json:"target_met"`
	// EvaluatedTrials counts the simulation trials actually run — the
	// successive-halving scoreboard (the naive sweep costs
	// len(Candidates) × Trials). Adversarial replays count too when a
	// worst-case search ran.
	EvaluatedTrials int `json:"evaluated_trials"`
	// WorstCase echoes the normalized adversarial budget when one ran;
	// Robust reports that the recommendation optimized the worst case.
	WorstCase string `json:"worst_case,omitempty"`
	Robust    bool   `json:"robust,omitempty"`
}

// Best returns the recommended candidate result, or nil when Recommended is
// -1 (no candidate survived a single trial).
func (r *Result) Best() *CandidateResult {
	if r.Recommended < 0 {
		return nil
	}
	return &r.Candidates[r.Recommended]
}

// candSeed feeds one candidate's scheduling tie-break RNG, derived by the
// shared FNV-1a discipline (sim.DeriveSeed, the campaign engine's); it
// depends on the candidate's full coordinates so no two grid points share a
// stream.
func candSeed(base int64, c Candidate) int64 {
	return sim.DeriveSeed(base, "sched", c.Scheduler, strconv.Itoa(c.Epsilon), c.Policy)
}

// evalSeed feeds every candidate's failure draws. It deliberately excludes
// the candidate coordinates: trial t then samples the identical scenario for
// every candidate (common random numbers), so candidates are compared on the
// same failure sample.
func evalSeed(base int64) int64 { return sim.DeriveSeed(base, "eval") }

// resolveScreen applies the ScreenTrials defaulting rule.
func resolveScreen(screen, trials int) int {
	if screen == 0 {
		screen = trials / 8
		if screen < 16 {
			screen = 16
		}
	}
	if screen > trials {
		screen = trials
	}
	return screen
}

// check validates the spec and resolves the candidate grid.
func (s Spec) check() ([]Candidate, error) {
	if s.Graph == nil || s.Platform == nil || s.Costs == nil {
		return nil, fmt.Errorf("tune: spec needs graph, platform and costs")
	}
	v, m := s.Graph.NumTasks(), s.Platform.NumProcs()
	if s.Costs.NumTasks() != v || s.Costs.NumProcs() != m {
		return nil, fmt.Errorf("tune: costs cover %d×%d, want %d tasks × %d processors",
			s.Costs.NumTasks(), s.Costs.NumProcs(), v, m)
	}
	if s.Trials < 1 {
		return nil, fmt.Errorf("tune: need trials >= 1, got %d", s.Trials)
	}
	if s.ScreenTrials < 0 {
		return nil, fmt.Errorf("tune: need screen trials >= 0, got %d", s.ScreenTrials)
	}
	if s.Target < 0 || s.Target > 1 {
		return nil, fmt.Errorf("tune: target must be a probability in [0, 1], got %g", s.Target)
	}
	gen, err := s.Scenario.Generator()
	if err != nil {
		return nil, err
	}
	if err := gen.Check(m); err != nil {
		return nil, err
	}
	if s.WorstCase != nil {
		if err := s.WorstCase.Validate(); err != nil {
			return nil, err
		}
	} else if s.Robust {
		return nil, fmt.Errorf("tune: robust mode needs a worst-case budget (set WorstCase)")
	}
	cands := s.Candidates
	if len(cands) == 0 {
		cands = DeriveCandidates(m, s.Epsilons)
	}
	if err := checkCandidates(cands, m); err != nil {
		return nil, err
	}
	return cands, nil
}

// candState is one candidate's mutable slot during a run. Slots are written
// only by the worker running the index, so par.For needs no locking.
type candState struct {
	schedule *sched.Schedule
	screen   *sim.EvalResult
	full     *sim.EvalResult
	wc       *sim.WorstCaseResult
	// screenOK and screenLat record the screening pass trial by trial.
	// Every candidate's trial t ran the identical failure scenario (shared
	// evaluation seed), so these align across candidates and support the
	// paired pruning comparison.
	screenOK  []bool
	screenLat []float64
}

// Run executes the tuning search and returns the Pareto frontier with a
// recommendation. See the package comment for the determinism, shared-draw
// and pruning contracts.
func Run(spec Spec) (*Result, error) {
	cands, err := spec.check()
	if err != nil {
		return nil, err
	}
	g, p, cm := spec.Graph, spec.Platform, spec.Costs
	gen, _ := spec.Scenario.Generator() // validated by check

	bl := spec.BottomLevels
	if bl == nil {
		if bl, err = sched.AvgBottomLevels(g, cm, p); err != nil {
			return nil, err
		}
	}

	screen := resolveScreen(spec.ScreenTrials, spec.Trials)
	naive := screen == spec.Trials
	eseed := evalSeed(spec.Seed)
	states := make([]candState, len(cands))
	// candErr names the candidate an error belongs to. par.For returns the
	// lowest failing index's error, so the error is the same at any Workers.
	candErr := func(i int, err error) error {
		return fmt.Errorf("tune: candidate %s: %w", cands[i], err)
	}

	// Phase 1: schedule every candidate once (schedules are reused by the
	// full pass) and evaluate it on the screening budget — or directly on
	// the full budget when pruning is disabled.
	firstTrials := screen
	if naive {
		firstTrials = spec.Trials
	}
	err = par.For(spec.Workers, len(cands), func(_, i int) error {
		st := &states[i]
		c := cands[i]
		s, err := sched.Run(c.Scheduler, g, p, cm, sched.RunOptions{
			Epsilon:      c.Epsilon,
			Policy:       c.Policy,
			Rng:          lazyrand.New(candSeed(spec.Seed, c)),
			BottomLevels: bl,
		})
		if err != nil {
			return candErr(i, err)
		}
		if err := s.Validate(); err != nil {
			return candErr(i, fmt.Errorf("generated schedule failed validation: %w", err))
		}
		st.schedule = s
		opt := sim.EvalOptions{Seed: eseed, Workers: 1}
		if !naive {
			st.screenOK = make([]bool, firstTrials)
			st.screenLat = make([]float64, firstTrials)
			opt.OnTrial = func(trial int, ok bool, latency float64) {
				st.screenOK[trial] = ok
				st.screenLat[trial] = latency
			}
		}
		res, err := sim.Evaluate(s, gen, firstTrials, opt)
		if err != nil {
			return candErr(i, err)
		}
		if naive {
			st.full = res
		} else {
			st.screen = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	evaluated := len(cands) * firstTrials

	// Successive halving: prune pessimistically dominated candidates, then
	// spend the full budget only on the survivors.
	var pruned []bool
	if !naive {
		pruned = pruneDominated(states)
		var survivors []int
		for i := range states {
			if !pruned[i] {
				survivors = append(survivors, i)
			}
		}
		err := par.For(spec.Workers, len(survivors), func(_, k int) error {
			i := survivors[k]
			res, err := sim.Evaluate(states[i].schedule, gen, spec.Trials, sim.EvalOptions{Seed: eseed, Workers: 1})
			if err != nil {
				return candErr(i, err)
			}
			states[i].full = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		evaluated += len(survivors) * spec.Trials
	}

	// Adversarial pass: search the worst case of every candidate that made
	// it to the full evaluation. The search itself is single-threaded and
	// deterministic; running candidates on the pool keeps wall-clock down
	// without touching the result, and the replay count is summed in grid
	// order so EvaluatedTrials is deterministic too.
	if spec.WorstCase != nil {
		var full []int
		for i := range states {
			if states[i].full != nil {
				full = append(full, i)
			}
		}
		err := par.For(spec.Workers, len(full), func(_, k int) error {
			i := full[k]
			wc, err := sim.WorstCase(states[i].schedule, *spec.WorstCase, sim.Options{})
			if err != nil {
				return candErr(i, err)
			}
			states[i].wc = wc
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, i := range full {
			evaluated += states[i].wc.Evals
		}
	}

	res := &Result{
		Scenario:        spec.Scenario.String(),
		Trials:          spec.Trials,
		ScreenTrials:    screen,
		Target:          spec.Target,
		Seed:            spec.Seed,
		Candidates:      make([]CandidateResult, len(cands)),
		Frontier:        []int{},
		Recommended:     -1,
		EvaluatedTrials: evaluated,
		Robust:          spec.Robust,
	}
	if spec.WorstCase != nil {
		res.WorstCase = spec.WorstCase.String()
	}
	for i, st := range states {
		cr := CandidateResult{
			Candidate:  cands[i],
			LowerBound: st.schedule.LowerBound(),
			UpperBound: st.schedule.UpperBound(),
		}
		if st.screen != nil {
			e := newEval(st.screen)
			cr.Screen = &e
		}
		if pruned != nil && pruned[i] {
			cr.Pruned = true
		}
		if st.full != nil {
			e := newEval(st.full)
			cr.Full = &e
		}
		cr.WorstCase = st.wc
		res.Candidates[i] = cr
	}
	markFrontier(res)
	if spec.Robust {
		recommendRobust(res)
	} else {
		recommend(res)
	}
	return res, nil
}

// pruneDominated decides which candidates skip the full-trial pass. A
// candidate is pruned iff some other candidate beats it under either of two
// conservative tests, both exploiting that all candidates screened on the
// identical failure draws:
//
//   - Paired domination. On the discordant trials (shared draws only one of
//     the two survived), j must be strictly more reliable: a clean sweep of
//     at least pruneMinWins trials with zero losses, or — when j lost a
//     few — a net win margin clearing a 95% sign test. And j must be no
//     slower with confidence: the whole paired-latency interval over the
//     trials both survived sits at or below zero. Pairing on common draws
//     is what makes both margins far tighter than marginal statistics.
//
//   - Interval domination (marginal). j's whole 95% Wilson success interval
//     lies above i's AND j's whole expected-latency interval lies below
//     i's. This catches wide-margin domination even when discordant trials
//     weaken the paired test. A candidate with zero screen successes has
//     no latency interval; it can be pruned by any candidate whose success
//     interval clears its Wilson upper bound, and can never prune.
func pruneDominated(states []candState) []bool {
	n := len(states)
	type iv struct {
		sLo, sHi float64 // Wilson success interval
		lLo, lHi float64 // expected-latency interval; meaningless when !ok
		ok       bool    // had at least one success
	}
	ivs := make([]iv, n)
	for i := range states {
		r := states[i].screen
		ivs[i].sLo, ivs[i].sHi = r.SuccessLow, r.SuccessHigh
		if lo, hi, ok := r.LatencyMeanInterval(wilsonZ); ok {
			ivs[i].lLo, ivs[i].lHi, ivs[i].ok = lo, hi, true
		}
	}
	paired := func(j, i int) bool {
		// Success, paired: count the trials whose shared failure draw only
		// one candidate survived.
		wins, losses := 0, 0 // j's wins/losses against i on discordant trials
		var dn int
		var dSum, dSumSq float64 // latency differences l_j - l_i on common successes
		for t := range states[i].screenOK {
			switch {
			case states[i].screenOK[t] && !states[j].screenOK[t]:
				losses++
			case states[j].screenOK[t] && !states[i].screenOK[t]:
				wins++
			case states[i].screenOK[t]:
				d := states[j].screenLat[t] - states[i].screenLat[t]
				dn++
				dSum += d
				dSumSq += d * d
			}
		}
		// j must be strictly more reliable on the sample: either a clean
		// sweep of enough discordant trials, or a significant sign test.
		var succBetter bool
		if losses == 0 {
			succBetter = wins >= pruneMinWins
		} else {
			d := float64(wins - losses)
			succBetter = d > wilsonZ*math.Sqrt(float64(wins+losses))
		}
		if !succBetter {
			return false
		}
		// And no slower with confidence: the whole paired-latency interval
		// over common successes (far tighter than marginal intervals, since
		// both replays faced the same crashes) must sit at or below zero.
		// No common successes means no latency evidence against j.
		if dn == 0 {
			return true
		}
		mean := dSum / float64(dn)
		varr := dSumSq/float64(dn) - mean*mean
		if varr < 0 {
			varr = 0
		}
		return mean+wilsonZ*math.Sqrt(varr/float64(dn)) <= 0
	}
	interval := func(j, i int) bool {
		if !ivs[j].ok {
			return false // a success-free candidate never dominates
		}
		betterSuccess := ivs[j].sLo > ivs[i].sHi
		betterLatency := !ivs[i].ok || ivs[j].lHi < ivs[i].lLo
		return betterSuccess && betterLatency
	}
	pruned := make([]bool, n)
	for i := range states {
		for j := range states {
			if j != i && (paired(j, i) || interval(j, i)) {
				pruned[i] = true
				break
			}
		}
	}
	return pruned
}

// eligible reports whether a candidate competes for the frontier: it has a
// full evaluation with at least one success.
func eligible(cr *CandidateResult) bool {
	return cr.Full != nil && cr.Full.Successes > 0
}

// dominates reports Pareto domination of a over b on
// (success rate max, expected latency min).
func dominates(a, b *Eval) bool {
	if a.SuccessRate < b.SuccessRate || a.LatencyMean > b.LatencyMean {
		return false
	}
	return a.SuccessRate > b.SuccessRate || a.LatencyMean < b.LatencyMean
}

// markFrontier computes the Pareto frontier over the eligible full
// evaluations, sorted ascending in expected latency (ties by grid index).
func markFrontier(res *Result) {
	var front []int
	for i := range res.Candidates {
		ci := &res.Candidates[i]
		if !eligible(ci) {
			continue
		}
		dominated := false
		for j := range res.Candidates {
			if j == i || !eligible(&res.Candidates[j]) {
				continue
			}
			if dominates(res.Candidates[j].Full, ci.Full) {
				dominated = true
				break
			}
		}
		if !dominated {
			ci.Frontier = true
			front = append(front, i)
		}
	}
	sort.Slice(front, func(a, b int) bool {
		fa, fb := res.Candidates[front[a]].Full, res.Candidates[front[b]].Full
		if fa.LatencyMean != fb.LatencyMean {
			return fa.LatencyMean < fb.LatencyMean
		}
		return front[a] < front[b]
	})
	if front != nil {
		res.Frontier = front
	}
}

// recommend picks the operating point: the cheapest candidate meeting the
// success target when one exists, otherwise the most reliable one. Ties
// break toward higher success, then lower latency, then grid order, so the
// choice is deterministic and always lands on the frontier.
func recommend(res *Result) {
	best, bestMeets := -1, false
	better := func(i int) bool {
		fi, fb := res.Candidates[i].Full, res.Candidates[best].Full
		meets := fi.SuccessRate >= res.Target
		if meets != bestMeets {
			return meets
		}
		if meets {
			if fi.LatencyMean != fb.LatencyMean {
				return fi.LatencyMean < fb.LatencyMean
			}
			return fi.SuccessRate > fb.SuccessRate
		}
		if fi.SuccessRate != fb.SuccessRate {
			return fi.SuccessRate > fb.SuccessRate
		}
		return fi.LatencyMean < fb.LatencyMean
	}
	for i := range res.Candidates {
		if !eligible(&res.Candidates[i]) {
			continue
		}
		if best < 0 || better(i) {
			best = i
			bestMeets = res.Candidates[i].Full.SuccessRate >= res.Target
		}
	}
	res.Recommended = best
	res.TargetMet = best >= 0 && bestMeets
}

// recommendRobust is the worst-case counterpart of recommend: a candidate
// "meets" only when its Monte-Carlo success clears Target AND the adversary
// found no miss within budget. Preference order inside each class: survived
// worst case beats missed, then lower worst-case latency, then higher
// success rate, then lower mean latency, then grid order — deterministic,
// like everything the cache serves.
func recommendRobust(res *Result) {
	meets := func(i int) bool {
		cr := &res.Candidates[i]
		return cr.Full.SuccessRate >= res.Target && cr.WorstCase != nil && !cr.WorstCase.Missed
	}
	// Rank the worst case: survived sorts below missed, by worst latency.
	rank := func(i int) (missed bool, lat float64) {
		wc := res.Candidates[i].WorstCase
		if wc == nil || wc.Missed {
			return true, math.Inf(1)
		}
		return false, wc.Latency
	}
	best, bestMeets := -1, false
	better := func(i int) bool {
		if m := meets(i); m != bestMeets {
			return m
		}
		iMiss, iLat := rank(i)
		bMiss, bLat := rank(best)
		if iMiss != bMiss {
			return bMiss
		}
		if iLat != bLat {
			return iLat < bLat
		}
		fi, fb := res.Candidates[i].Full, res.Candidates[best].Full
		if fi.SuccessRate != fb.SuccessRate {
			return fi.SuccessRate > fb.SuccessRate
		}
		return fi.LatencyMean < fb.LatencyMean
	}
	for i := range res.Candidates {
		if !eligible(&res.Candidates[i]) {
			continue
		}
		if best < 0 || better(i) {
			best = i
			bestMeets = meets(i)
		}
	}
	res.Recommended = best
	res.TargetMet = best >= 0 && bestMeets
}
