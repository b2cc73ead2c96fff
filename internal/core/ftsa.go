package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ftsched/internal/bipartite"
	"ftsched/internal/dag"
	"ftsched/internal/kernel"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// ErrDeadline is returned by the deadline-checked variant when, at some
// step, even the best ε+1 processors cannot meet the task's deadline — the
// latency/ε combination is infeasible (Section 4.3).
var ErrDeadline = errors.New("core: failed to satisfy both latency and failure criteria simultaneously")

// ftsa runs Algorithm 4.1: list scheduling by task criticalness
// (tℓ(t)+bℓ(t)) with the free list in a priority heap, mapping every task
// onto the ε+1 processors that minimize its finish time (equation 1), and
// recording the pessimistic window (equation 3) on those processors. The
// resulting schedule uses the full communication pattern (every predecessor
// replica sends to every successor replica).
func ftsa(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	return runFTSA(g, p, cm, opt, false, "FTSA")
}

// ftsaIns is the registry-only "ftsa-ins" variant: FTSA's criticalness
// priorities and ε+1 minimum-finish-time processor selection, but with
// HEFT-style insertion-based placement — each replica's optimistic window
// goes into the earliest inter-slot gap of its processor's timeline (via the
// shared kernel) instead of strictly after everything already mapped there.
// The pessimistic window stays append-only: under failures, the gap
// structure of the optimistic timeline is not guaranteed, so equation (3)
// keeps its conservative ready times and the upper bound remains valid.
func ftsaIns(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	return runFTSA(g, p, cm, opt, true, "FTSA-ins")
}

// runFTSA is the shared FTSA driver, parameterized on the placement mode.
func runFTSA(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions, insertion bool, algo string) (*sched.Schedule, error) {
	st, err := newState(g, p, cm, opt, sched.PatternAll, algo, insertion)
	if err != nil {
		return nil, err
	}
	defer st.release()
	for st.free.Len() > 0 {
		t := st.pop()
		reps, err := st.placeBestEFT(t)
		if err != nil {
			return nil, err
		}
		if err := st.commit(t, reps, nil); err != nil {
			return nil, err
		}
	}
	return st.finish()
}

// state carries the incremental data of one scheduling run: what the run
// was given and built (run, dropped on release) and the buffers it works in.
// States are pooled whole. A campaign schedules thousands of instances back
// to back; recycling the buffers (together with the kernel's pooled boards)
// keeps the per-run steady-state allocation count at the schedule's own
// instead of scaling with tasks × processors.
type state struct {
	run

	tl           []float64 // dynamic top levels, updated as predecessors are mapped
	unschedPreds []int
	free         kernel.PriorityList // the free list α

	// maxFrom memoizes p.MaxDelayFrom per processor: the commit step charges
	// the worst-case outgoing delay once per (successor edge × replica), and
	// recomputing the O(m) maximum there dominated profiles of large runs.
	maxFrom []float64

	// buffers reused across steps to keep the loop allocation-free.
	cands []kernel.Choice
	reps  []sched.Replica

	// MC-FTSA matching scratch: the per-task processor→copy index, the
	// per-edge bipartite graph (rebuilt in place), its greedy sort keys and
	// order, and the matching output buffers.
	procCopy []int32
	bg       bipartite.Graph
	keys     []edgeKey
	order    []int
	matchL   bipartite.Matching
	usedR    []bool
}

// run is the part of a state that belongs to one run.
type run struct {
	f   *dag.Flat // frozen CSR view of the graph; all adjacency walks go through it
	p   *platform.Platform
	cm  *platform.CostModel
	opt sched.RunOptions
	s   *sched.Schedule

	bl        []float64 // static bottom levels
	deadlines []float64 // per-task deadlines of Section 4.3; nil unless opt.Latency > 0

	// board holds the shared per-processor placement state: ready times,
	// the earliest-arrival row and (for the insertion variant) busy
	// timelines.
	board *kernel.Board
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// release returns the board and the state to their pools. The schedule
// handed out by finish never aliases them (sched.Place copies replicas), so
// releasing after a run — successful or not — is always safe. A run that
// stopped early (a missed deadline) leaves tasks in α; they go here, with
// every reference to the instance, so the next run on this state starts
// from an empty list and the pool pins nobody's graph.
func (st *state) release() {
	st.board.Release()
	st.free.Reset()
	st.run = run{}
	statePool.Put(st)
}

func newState(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions, pattern sched.Pattern, algo string, insertion bool) (*state, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	s, err := sched.New(g, p, cm, opt.Epsilon, pattern, algo)
	if err != nil {
		return nil, err
	}
	var dls []float64
	if opt.Latency > 0 {
		if dls, err = sched.Deadlines(g, cm, p, opt.Epsilon, opt.Latency); err != nil {
			return nil, err
		}
	}
	bl, err := sched.ResolveBottomLevels(g, cm, p, opt.BottomLevels)
	if err != nil {
		return nil, err
	}
	m := p.NumProcs()
	v := g.NumTasks()
	st := statePool.Get().(*state)
	st.run = run{f: f, p: p, cm: cm, opt: opt, s: s, bl: bl, deadlines: dls, board: kernel.NewBoard(m, insertion)}
	st.tl = kernel.GrowZero(st.tl, v)
	st.unschedPreds = kernel.Grow(st.unschedPreds, v)
	st.maxFrom = kernel.Grow(st.maxFrom, m)
	for j := 0; j < m; j++ {
		st.maxFrom[j] = p.MaxDelayFrom(platform.ProcID(j))
	}
	for t := 0; t < v; t++ {
		st.unschedPreds[t] = f.InDegree(dag.TaskID(t))
		if st.unschedPreds[t] == 0 {
			st.push(dag.TaskID(t))
		}
	}
	return st, nil
}

func (st *state) tie() uint64 {
	if st.opt.Rng == nil {
		return 0
	}
	return st.opt.Rng.Uint64()
}

func (st *state) push(t dag.TaskID) {
	st.free.Push(kernel.Item{Priority: st.tl[t] + st.bl[t], Tie: st.tie(), ID: int(t)})
}

func (st *state) pop() dag.TaskID {
	it, _ := st.free.Pop()
	return dag.TaskID(it.ID)
}

// placeBestEFT computes equation (1) on every processor and selects the ε+1
// distinct processors with minimum finish time, breaking ties toward lower
// processor indices. The replicas are ordered by increasing optimistic
// finish time. Arrivals and start times come from the shared kernel board;
// under insertion the optimistic start is the earliest fitting gap of the
// processor's timeline instead of max(arrival, ready). The pessimistic
// window (equation 3) is computed on the ε+1 selected processors only, and
// under PatternMatched not at all: recomputeMatchedWindows sets both windows
// from the matched sources, so there the replicas leave here with the
// optimistic window alone.
//
// The returned slice is the state's scratch — valid until the next
// placeBestEFT; commit (via sched.Place) copies it into the schedule.
func (st *state) placeBestEFT(t dag.TaskID) ([]sched.Replica, error) {
	st.board.Arrivals(st.f, st.p, st.s, t)
	k := st.opt.Epsilon + 1
	cands := st.cands[:0]
	for j := 0; j < st.p.NumProcs(); j++ {
		pj := platform.ProcID(j)
		e := st.cm.Cost(t, pj)
		fin := st.board.StartMin(j, st.board.ArrMin[j], e) + e
		// Processors are offered in ascending index, so a finish time that
		// does not beat the k-th best cannot enter: skip the call.
		if len(cands) == k && fin >= cands[k-1].Value {
			continue
		}
		cands = kernel.KeepSmallest(cands, k, kernel.Choice{Proc: pj, Value: fin})
	}
	st.cands = cands
	matched := st.s.CommPattern == sched.PatternMatched
	reps := st.reps[:0]
	for i := 0; i < k; i++ {
		pj := cands[i].Proc
		e := st.cm.Cost(t, pj)
		sMin := st.board.StartMin(int(pj), st.board.ArrMin[pj], e)
		sMax := 0.0
		if !matched {
			sMax = st.board.StartMax(int(pj), st.board.ArrivalMaxOn(st.f, st.p, st.s, t, pj))
		}
		reps = append(reps, sched.Replica{
			Task: t, Copy: i, Proc: pj,
			StartMin: sMin, FinishMin: sMin + e,
			StartMax: sMax, FinishMax: sMax + e,
		})
	}
	st.reps = reps
	return reps, nil
}

// commit checks the deadline (Section 4.3), records the replicas (and the
// matched sources under PatternMatched), advances processor ready times and
// releases newly free successors.
func (st *state) commit(t dag.TaskID, reps []sched.Replica, matched [][]int) error {
	if st.deadlines != nil {
		worst := 0.0
		for _, r := range reps {
			worst = max(worst, r.FinishMin)
		}
		if worst > st.deadlines[t]+1e-9 {
			return fmt.Errorf("%w: task %d finishes at %.4g after deadline %.4g",
				ErrDeadline, t, worst, st.deadlines[t])
		}
	}
	if err := st.s.Place(t, reps); err != nil {
		return err
	}
	if matched != nil {
		if err := st.s.SetMatchedSources(t, matched); err != nil {
			return err
		}
	}
	st.board.Commit(reps)
	// Update the dynamic top level of successors (Section 4.1, adapted to
	// replication: the data of t is available once its earliest replica
	// finishes, and we charge the worst-case outgoing delay from that
	// replica's processor since the successor's mapping is unknown).
	succs := st.f.SuccIDs(t)
	vols := st.f.SuccVolumes(t)
	for i, sRaw := range succs {
		se := dag.TaskID(sRaw)
		contrib := math.Inf(1)
		for _, r := range reps {
			contrib = min(contrib, r.FinishMin+vols[i]*st.maxFrom[r.Proc])
		}
		st.tl[se] = max(st.tl[se], contrib)
		st.unschedPreds[se]--
		if st.unschedPreds[se] == 0 {
			st.push(se)
		}
	}
	return nil
}

func (st *state) finish() (*sched.Schedule, error) {
	if !st.s.Complete() {
		return nil, dag.ErrCycle
	}
	return st.s, nil
}
