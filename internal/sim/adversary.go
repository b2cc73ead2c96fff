package sim

import (
	"fmt"
	"math"
	"sort"

	"ftsched/internal/dag"
	"ftsched/internal/sched"
)

// AdversarySpec bounds an adversarial scenario search: the attacker may
// crash up to Crashes units (single processors, or aligned racks of
// GroupSize) at times of its choosing, and the search spends at most
// MaxEvals schedule replays finding the most damaging pattern. The zero
// value of every optional field selects a sensible default, and defaults
// are canonicalized before fingerprinting, so an explicit default and an
// omitted field share one cache entry.
type AdversarySpec struct {
	// Crashes is the attack budget: how many units may be crashed. It is
	// clamped to the number of units on the platform.
	Crashes int `json:"crashes"`
	// GroupSize, when > 1, makes the unit of attack an aligned rack of
	// that many consecutive processors (the group scenario's rack
	// structure) instead of a single processor.
	GroupSize int `json:"group_size,omitempty"`
	// TimeGrid caps the candidate crash times per unit: time 0 plus up to
	// TimeGrid-1 replica-finish boundaries from the no-failure replay
	// (crash times between two boundaries kill the same replicas, so only
	// boundaries matter). 0 means 8.
	TimeGrid int `json:"time_grid,omitempty"`
	// MaxEvals is the replay budget of the search, counting the baseline
	// replay. 0 means 4096.
	MaxEvals int `json:"max_evals,omitempty"`
}

const (
	defaultTimeGrid = 8
	defaultMaxEvals = 4096
	// maxAdversaryEvals caps the budget a request can ask for; one replay
	// is cheap but not free, and the search is synchronous on the serving
	// path.
	maxAdversaryEvals = 1 << 20
)

// normalized fills defaults — the shape fingerprints hash, so an explicit
// default and an omitted field produce one cache key.
func (a AdversarySpec) normalized() AdversarySpec {
	if a.GroupSize < 1 {
		a.GroupSize = 1
	}
	if a.TimeGrid < 1 {
		a.TimeGrid = defaultTimeGrid
	}
	if a.MaxEvals < 1 {
		a.MaxEvals = defaultMaxEvals
	}
	return a
}

// Validate rejects a spec no search could run.
func (a AdversarySpec) Validate() error {
	if a.Crashes < 0 {
		return fmt.Errorf("sim: worst case needs crashes >= 0, got %d", a.Crashes)
	}
	if a.GroupSize < 0 {
		return fmt.Errorf("sim: negative worst-case group_size %d", a.GroupSize)
	}
	if a.TimeGrid < 0 {
		return fmt.Errorf("sim: negative worst-case time_grid %d", a.TimeGrid)
	}
	if a.MaxEvals < 0 {
		return fmt.Errorf("sim: negative worst-case max_evals %d", a.MaxEvals)
	}
	if a.MaxEvals > maxAdversaryEvals {
		return fmt.Errorf("sim: worst-case max_evals %d exceeds the cap of %d", a.MaxEvals, maxAdversaryEvals)
	}
	return nil
}

// String renders the normalized spec canonically — the form fingerprints
// and result echoes share.
func (a AdversarySpec) String() string {
	n := a.normalized()
	return fmt.Sprintf("adv:%d:g%d:t%d:e%d", n.Crashes, n.GroupSize, n.TimeGrid, n.MaxEvals)
}

// CrashEvent is one processor crash of a worst-case pattern.
type CrashEvent struct {
	Proc int     `json:"proc"`
	Time float64 `json:"time"`
}

// WorstCaseResult reports the most damaging failure pattern a bounded
// adversarial search found — the deterministic worst-case column next to
// /evaluate's Monte-Carlo mean. Missed reports that the pattern starves an
// exit task (the schedule misses); otherwise Latency/Degradation report how
// far the pattern stretches the execution past the no-failure baseline.
type WorstCaseResult struct {
	// Spec echoes the normalized search budget.
	Spec string `json:"spec"`
	// Crashes is the worst pattern found, ordered by (time, proc).
	Crashes []CrashEvent `json:"crashes"`
	// Missed reports whether the pattern defeats the schedule outright.
	Missed bool `json:"missed"`
	// Latency is the makespan under the pattern (0 when Missed).
	Latency float64 `json:"latency"`
	// Degradation is (Latency - baseline)/baseline against the no-failure
	// replay (0 when Missed).
	Degradation float64 `json:"degradation"`
	// Evals counts replays spent, including the baseline.
	Evals int `json:"evals"`
	// Exhaustive reports that the search covered every crash-at-zero
	// pattern within budget, making the result a certificate over that
	// space rather than a heuristic.
	Exhaustive bool `json:"exhaustive"`
}

// advOutcome orders search outcomes: a miss beats any success, higher
// latency beats lower.
type advOutcome struct {
	missed  bool
	latency float64
}

func (o advOutcome) beats(p advOutcome) bool {
	if o.missed != p.missed {
		return o.missed
	}
	return o.latency > p.latency
}

// WorstCase searches for the failure pattern within spec's budget that does
// the most damage to the schedule: first every crash-at-time-zero pattern
// (exhaustively, when the subset count fits the eval budget — uniform:N's
// entire support, so the worst case provably dominates any Monte-Carlo draw
// of the same shape), then a greedy pass over the crash-time grid seeded by
// the no-failure replay's replica finish boundaries. The search is
// single-threaded and fully deterministic: equal inputs give byte-identical
// results at any worker or shard count.
func WorstCase(s *sched.Schedule, spec AdversarySpec, opt Options) (*WorstCaseResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.normalized()
	m := s.Platform.NumProcs()
	rp, err := newReplayer(s, opt)
	if err != nil {
		return nil, err
	}
	defer rp.release()

	// Baseline no-failure replay: the degradation anchor and the source of
	// the crash-time grid.
	sc := NewScenario(m)
	evals := 0
	eval := func() (advOutcome, error) {
		evals++
		lat, _, badExit, err := rp.replay(sc, nil)
		if err != nil {
			return advOutcome{}, err
		}
		return advOutcome{missed: badExit >= 0, latency: lat}, nil
	}
	base, err := eval()
	if err != nil {
		return nil, err
	}
	if base.missed {
		// The schedule fails with no crashes at all; there is nothing for
		// an adversary to do.
		return &WorstCaseResult{Spec: n.String(), Missed: true, Evals: evals, Exhaustive: true}, nil
	}

	// Units of attack: single processors, or aligned racks of GroupSize.
	units := (m + n.GroupSize - 1) / n.GroupSize
	unitProcs := func(u int) (lo, hi int) {
		lo = u * n.GroupSize
		hi = lo + n.GroupSize
		if hi > m {
			hi = m
		}
		return lo, hi
	}
	k := n.Crashes
	if k > units {
		k = units
	}
	best := base
	bestPattern := []CrashEvent{}
	result := func(exhaustive bool) *WorstCaseResult {
		res := &WorstCaseResult{
			Spec:       n.String(),
			Crashes:    bestPattern,
			Missed:     best.missed,
			Evals:      evals,
			Exhaustive: exhaustive,
		}
		if !best.missed {
			res.Latency = best.latency
			if base.latency > 0 {
				res.Degradation = (best.latency - base.latency) / base.latency
			}
		}
		sort.Slice(res.Crashes, func(i, j int) bool {
			if res.Crashes[i].Time != res.Crashes[j].Time {
				return res.Crashes[i].Time < res.Crashes[j].Time
			}
			return res.Crashes[i].Proc < res.Crashes[j].Proc
		})
		return res
	}
	if k == 0 {
		return result(true), nil
	}

	// Candidate crash times per unit: 0 (dead from the start) plus the
	// baseline replica-finish boundaries on the unit's processors — a crash
	// between two boundaries kills exactly the replicas a crash at the lower
	// boundary kills, so only boundaries change the outcome (later crashes
	// can still interact across processors through rerouting; the grid is
	// the seed, not a proof). The boundary list is subsampled evenly to
	// TimeGrid entries. rp.finish still holds the baseline replay's times.
	times := make([][]float64, units)
	perProc := make([][]float64, m)
	for t := range rp.finish {
		for c, end := range rp.finish[t] {
			if math.IsInf(end, 1) {
				continue
			}
			p := int(s.Replicas(dag.TaskID(t))[c].Proc)
			perProc[p] = append(perProc[p], end)
		}
	}
	for u := 0; u < units; u++ {
		lo, hi := unitProcs(u)
		var b []float64
		for p := lo; p < hi; p++ {
			b = append(b, perProc[p]...)
		}
		sort.Float64s(b)
		// Dedupe and drop the maximum (crashing at or after the last finish
		// kills nothing on the unit).
		b = dedupeSorted(b)
		if len(b) > 0 {
			b = b[:len(b)-1]
		}
		grid := []float64{0}
		if want := n.TimeGrid - 1; want > 0 && len(b) > 0 {
			switch {
			case len(b) <= want:
				grid = append(grid, b...)
			case want == 1:
				grid = append(grid, b[len(b)-1])
			default:
				for i := 0; i < want; i++ {
					grid = append(grid, b[i*(len(b)-1)/(want-1)])
				}
				grid = dedupeSorted(grid)
			}
		}
		times[u] = grid
	}

	// fill writes the pattern into sc and returns it as crash events.
	fill := func(pattern []unitCrash) []CrashEvent {
		resetAlive(&sc)
		var evs []CrashEvent
		for _, uc := range pattern {
			lo, hi := unitProcs(uc.unit)
			for p := lo; p < hi; p++ {
				sc.CrashTime[p] = uc.time
				evs = append(evs, CrashEvent{Proc: p, Time: uc.time})
			}
		}
		return evs
	}
	try := func(pattern []unitCrash) (stop bool, err error) {
		evs := fill(pattern)
		o, err := eval()
		if err != nil {
			return false, err
		}
		if o.beats(best) {
			best = o
			bestPattern = evs
		}
		return best.missed, nil
	}

	// Phase A: exhaustive crash-at-zero subsets, the support of uniform:k
	// draws, whenever the subset count fits the remaining budget.
	exhaustive := false
	if c, ok := binomial(units, k); ok && c <= int64(n.MaxEvals-evals) {
		exhaustive = true
		pattern := make([]unitCrash, k)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			for i, u := range idx {
				pattern[i] = unitCrash{unit: u}
			}
			stop, err := try(pattern)
			if err != nil {
				return nil, err
			}
			if stop {
				return result(exhaustive), nil
			}
			// Next k-subset in lexicographic order.
			i := k - 1
			for i >= 0 && idx[i] == units-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}

	// Phase B: greedy construction over the time grid — add the single
	// (unit, time) crash that hurts most, k times, within the remaining
	// budget. Enumeration order (unit ascending, time ascending) plus
	// strict improvement makes every tie-break deterministic.
	chosen := make([]unitCrash, 0, k)
	taken := make([]bool, units)
	for step := 0; step < k && evals < n.MaxEvals; step++ {
		stepBest := advOutcome{latency: math.Inf(-1)}
		stepPick := unitCrash{unit: -1}
		for u := 0; u < units && evals < n.MaxEvals; u++ {
			if taken[u] {
				continue
			}
			for _, at := range times[u] {
				if evals >= n.MaxEvals {
					break
				}
				cand := append(chosen, unitCrash{unit: u, time: at})
				evs := fill(cand)
				o, err := eval()
				if err != nil {
					return nil, err
				}
				if o.beats(best) {
					best = o
					bestPattern = evs
				}
				if o.beats(stepBest) {
					stepBest = o
					stepPick = unitCrash{unit: u, time: at}
				}
				if o.missed {
					return result(exhaustive), nil
				}
			}
		}
		if stepPick.unit < 0 {
			break
		}
		chosen = append(chosen, stepPick)
		taken[stepPick.unit] = true
	}
	return result(exhaustive), nil
}

// unitCrash is one chosen (unit, crash time) of the search.
type unitCrash struct {
	unit int
	time float64
}

// binomial returns C(n, k), reporting overflow past 2^62.
func binomial(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	c := int64(1)
	for i := 1; i <= k; i++ {
		if c > (1<<62)/int64(n-k+i) {
			return 0, false
		}
		c = c * int64(n-k+i) / int64(i)
	}
	return c, true
}

func dedupeSorted(v []float64) []float64 {
	dst := 0
	for i, x := range v {
		if i > 0 && x == v[i-1] {
			continue
		}
		v[dst] = x
		dst++
	}
	return v[:dst]
}
