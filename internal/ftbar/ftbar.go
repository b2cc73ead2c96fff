package ftbar

import (
	"math"
	"sync"

	"ftsched/internal/dag"
	"ftsched/internal/kernel"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
)

// schedule runs FTBAR and returns a fault-tolerant schedule with the full
// communication pattern. opt.Epsilon is FTBAR's Npf, the number of fail-stop
// processor failures to tolerate: every task is scheduled on Npf+1 distinct
// processors, plus any duplicates Minimize-Start-Time adds. Policy
// "noduplication" turns that procedure off (an ablation; the faithful
// baseline keeps it on). opt.Rng breaks urgency ties randomly (the paper:
// "ties are broken randomly"); nil breaks them by task ID.
func schedule(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*sched.Schedule, error) {
	st, err := newState(g, p, cm, opt)
	if err != nil {
		return nil, err
	}
	defer st.release()
	for st.free.Len() > 0 {
		if err := st.step(); err != nil {
			return nil, err
		}
	}
	if !st.s.Complete() {
		return nil, dag.ErrCycle
	}
	return st.s, nil
}

func newState(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt sched.RunOptions) (*state, error) {
	f, err := g.Freeze()
	if err != nil {
		return nil, err
	}
	s, err := sched.New(g, p, cm, opt.Epsilon, sched.PatternAll, "FTBAR")
	if err != nil {
		return nil, err
	}
	// s(ti): latest start-time measured bottom-up; as in the σ definition we
	// use the average-cost bottom level (which includes ti's own execution —
	// a constant shift per task that leaves both argmin and argmax intact).
	bl, err := sched.ResolveBottomLevels(g, cm, p, opt.BottomLevels)
	if err != nil {
		return nil, err
	}
	m, v := p.NumProcs(), g.NumTasks()
	ws := scratchPool.Get().(*scratch)
	ws.unsched = kernel.Grow(ws.unsched, v)
	ws.arr = kernel.Grow(ws.arr, v*m)
	ws.current = kernel.GrowZero(ws.current, v)
	ws.delayTo = kernel.Grow(ws.delayTo, m*m)
	for k := 0; k < m; k++ {
		for h, d := range p.DelayRow(platform.ProcID(k)) {
			ws.delayTo[h*m+k] = d
		}
	}
	st := &state{
		f: f, p: p, cm: cm, opt: opt, s: s,
		bl:      bl,
		board:   kernel.NewBoard(m, false),
		scratch: ws,
	}
	for t := 0; t < v; t++ {
		st.unsched[t] = f.InDegree(dag.TaskID(t))
		if st.unsched[t] == 0 {
			st.free.Add(dag.TaskID(t))
		}
	}
	return st, nil
}

// release returns the run's board and scratch to their pools; the schedule
// never aliases them (sched.Place copies replicas).
func (st *state) release() {
	st.board.Release()
	scratchPool.Put(st.scratch)
}

type state struct {
	f   *dag.Flat // frozen CSR view; all adjacency walks go through it
	p   *platform.Platform
	cm  *platform.CostModel
	opt sched.RunOptions
	s   *sched.Schedule

	bl []float64
	// board carries the shared per-processor ready times and arrival-window
	// scratch (kernel); the Minimize-Start-Time duplication advances its
	// ready times directly.
	board    *kernel.Board
	free     kernel.Set
	makespan float64 // R(n−1)

	*scratch
}

// scratch is the pooled backing storage of one run (see core's): a campaign
// schedules thousands of instances back to back on the same buffers.
type scratch struct {
	unsched []int
	// arr memoises the earliest-arrival row of every free task: once
	// current[t] is set, arr[t·m : (t+1)·m] is Board.ArrMin for t. The row
	// depends only on the replicas of t's predecessors, all placed before t
	// became free, so it stays valid across steps; the one later mutation
	// is a Minimize-Start-Time duplicate of a predecessor, and reduceArrival
	// clears current for the duplicated task's successors.
	arr     []float64
	current []bool
	// delayTo is the delay matrix transposed, delayTo[h·m+k] = d(Pk,Ph):
	// Minimize-Start-Time asks what reaches one processor from wherever a
	// predecessor's copies sit, which is a walk down a column of d.
	delayTo []float64
	// cand and best are two (Npf+1)-slot selection buffers: the task being
	// scanned and the most urgent one so far.
	cand, best []kernel.Choice
	reps       []sched.Replica
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// arrivalRow returns the memoised earliest arrival of t's inputs on every
// processor, filling it through the board when it is missing or stale.
func (st *state) arrivalRow(t dag.TaskID) []float64 {
	m := st.p.NumProcs()
	row := st.arr[int(t)*m : (int(t)+1)*m]
	if !st.current[t] {
		st.board.ArrivalsInto(row, st.f, st.p, st.s, t)
		st.current[t] = true
	}
	return row
}

// step performs one FTBAR iteration: global pressure scan, most-urgent pair
// selection, optional duplication, placement. The scan still visits every
// free task on every processor — σ depends on the ready times r(p) and on
// R(n−1), which move each step — but takes arrivals from the memo, so it
// costs m comparisons per free task instead of an arrival-window fold.
func (st *state) step() error {
	k := st.opt.Epsilon + 1
	// Most urgent pair: maximum, over the free tasks, of the largest pressure
	// within the task's Npf+1 minimum-pressure processors.
	t, urgency := dag.TaskID(-1), 0.0
	cand, best := st.cand, st.best
	ready := st.board.ReadyMin
	for _, ft := range st.free.Tasks() {
		cand = cand[:0]
		s, r := st.bl[ft], st.makespan
		for j, arr := range st.arrivalRow(ft) {
			sigma := max(arr, ready[j]) + s - r // S(n)(t,p) = max(arrival, r(p))
			// Offered in ascending index: a pressure that does not beat the
			// k-th smallest cannot enter.
			if len(cand) == k && sigma >= cand[k-1].Value {
				continue
			}
			cand = kernel.KeepSmallest(cand, k, kernel.Choice{Proc: platform.ProcID(j), Value: sigma})
		}
		urg := cand[k-1].Value
		if t < 0 || urg > urgency ||
			(urg == urgency && st.opt.Rng != nil && st.opt.Rng.Intn(2) == 0) {
			t, urgency = ft, urg
			cand, best = best, cand
		}
	}
	st.cand, st.best = cand, best

	if st.opt.Policy != "noduplication" {
		for _, c := range best {
			st.minimizeStartTime(t, c.Proc)
		}
	}

	// Place the replicas where the inputs land after any duplication: the
	// Npf+1 chosen columns of the arrival matrix, not its m-wide rows.
	reps := st.reps[:0]
	for i, c := range best {
		pj := c.Proc
		e := st.cm.Cost(t, pj)
		arrMin, arrMax := st.windowOn(t, st.delaysTo(pj))
		sMin := st.board.StartMin(int(pj), arrMin, e)
		sMax := st.board.StartMax(int(pj), arrMax)
		reps = append(reps, sched.Replica{
			Task: t, Copy: i, Proc: pj,
			StartMin: sMin, FinishMin: sMin + e,
			StartMax: sMax, FinishMax: sMax + e,
		})
	}
	st.reps = reps
	if err := st.s.Place(t, reps); err != nil {
		return err
	}
	st.board.Commit(reps)
	for _, r := range reps {
		st.makespan = max(st.makespan, r.FinishMin)
	}
	// Release successors and remove t from the free list.
	st.free.Remove(t)
	for _, sRaw := range st.f.SuccIDs(t) {
		se := dag.TaskID(sRaw)
		st.unsched[se]--
		if st.unsched[se] == 0 {
			st.free.Add(se)
		}
	}
	return nil
}

// mstDepth bounds the Minimize-Start-Time recursion. The original procedure
// recurses along critical-predecessor chains; four levels reproduce its
// cost/benefit profile (and its super-linear running-time growth, Table 1)
// without unbounded duplication.
const mstDepth = 4

// minimizeStartTime implements the recursive Ahmad–Kwok procedure: while the
// start of t on proc is dominated by a remote predecessor message, first try
// to improve that predecessor's own inputs on proc (recursively), then
// duplicate the predecessor onto proc if the duplicate strictly reduces the
// arrival of its data. Duplicates committed by deeper levels persist even if
// the shallower duplication is rejected — the original heuristic has the
// same side effect, and it contributes to FTBAR's larger communication and
// occupancy footprint.
func (st *state) minimizeStartTime(t dag.TaskID, proc platform.ProcID) {
	st.reduceArrival(t, proc, mstDepth)
}

// delaysTo returns proc's row of scratch.delayTo: d(Pk, proc) by k.
func (st *state) delaysTo(proc platform.ProcID) []float64 {
	m := st.p.NumProcs()
	return st.delayTo[int(proc)*m : (int(proc)+1)*m]
}

// arrivalsFrom is sched.ArrivalWindow for one destination, to being that
// processor's delaysTo. Same sums, same folds, so the same bits.
func arrivalsFrom(to []float64, srcReps []sched.Replica, volume float64) (earliest, latest float64) {
	earliest = math.Inf(1)
	for i := range srcReps {
		sr := &srcReps[i]
		d := to[sr.Proc]
		earliest = min(earliest, sr.FinishMin+volume*d)
		latest = max(latest, sr.FinishMax+volume*d)
	}
	return earliest, latest
}

// windowOn returns when the data of every predecessor of t is on the
// processor to belongs to, at the earliest and at the latest: Board.Arrivals'
// ArrMin entry and Board.ArrivalMaxOn for that processor.
func (st *state) windowOn(t dag.TaskID, to []float64) (arrMin, arrMax float64) {
	vols := st.f.PredVolumes(t)
	for i, predRaw := range st.f.PredIDs(t) {
		eMin, eMax := arrivalsFrom(to, st.s.Replicas(dag.TaskID(predRaw)), vols[i])
		arrMin, arrMax = max(arrMin, eMin), max(arrMax, eMax)
	}
	return arrMin, arrMax
}

// criticalPred returns the predecessor whose message determines t's earliest
// arrival on proc — the first, in predecessor order, to attain the latest
// arrival — and that arrival; -1 when nothing arrives after time 0. While t's
// row is in the memo the maximum is known before the fold starts, and the
// fold stops at the predecessor that attains it.
func (st *state) criticalPred(t dag.TaskID, proc platform.ProcID, to []float64) (critical dag.TaskID, arrival float64) {
	known := -1.0 // no arrival is negative
	if st.current[t] {
		known = st.arr[int(t)*len(to)+int(proc)]
	}
	critical = -1
	vols := st.f.PredVolumes(t)
	for i, predRaw := range st.f.PredIDs(t) {
		pe := dag.TaskID(predRaw)
		if eMin, _ := arrivalsFrom(to, st.s.Replicas(pe), vols[i]); eMin > arrival {
			critical, arrival = pe, eMin
			if eMin == known {
				break
			}
		}
	}
	return critical, arrival
}

func (st *state) reduceArrival(t dag.TaskID, proc platform.ProcID, depth int) {
	if depth <= 0 {
		return
	}
	m := st.p.NumProcs()
	to := st.delaysTo(proc)
	for iter := st.f.InDegree(t); iter > 0; iter-- {
		// Find the predecessor whose message determines t's arrival on proc.
		critical, criticalArr := st.criticalPred(t, proc, to)
		if critical < 0 {
			return // entry task
		}
		// Already local? Nothing to gain.
		local := false
		for _, r := range st.s.Replicas(critical) {
			if r.Proc == proc {
				local = true
				break
			}
		}
		if local {
			return
		}
		// Recursively pull the critical predecessor's own inputs onto proc
		// so the duplicate below starts as early as possible.
		st.reduceArrival(critical, proc, depth-1)
		// Earliest the duplicate itself could run on proc: when the inputs
		// of critical are there, which is its memoised row while that holds.
		var dupArrMin float64
		if st.current[critical] {
			dupArrMin = st.arr[int(critical)*m+int(proc)]
		} else {
			_, dupArrMin = st.criticalPred(critical, proc, to)
		}
		e := st.cm.Cost(critical, proc)
		dupStartMin := max(dupArrMin, st.board.ReadyMin[proc])
		dupFinishMin := dupStartMin + e
		if dupFinishMin >= criticalArr {
			return // duplication does not help
		}
		_, dupArrMax := st.windowOn(critical, to)
		dupStartMax := max(dupArrMax, st.board.ReadyMax[proc])
		if err := st.s.AddDuplicate(critical, sched.Replica{
			Task: critical, Proc: proc,
			StartMin: dupStartMin, FinishMin: dupFinishMin,
			StartMax: dupStartMax, FinishMax: dupStartMax + e,
		}); err != nil {
			return
		}
		// critical's successors now have one more source to hear from.
		for _, se := range st.f.SuccIDs(critical) {
			st.current[se] = false
		}
		st.board.ReadyMin[proc] = dupFinishMin
		st.board.ReadyMax[proc] = dupStartMax + e
		st.makespan = max(st.makespan, dupFinishMin)
	}
}
