package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// Replica is one of the ε+1 copies of a task placed on a processor.
//
// Two time windows are tracked. The Min window follows equation (1): the
// replica starts as soon as the *earliest* copy of each predecessor has
// delivered its data ("the task is executed and ignores later incoming
// data"); the schedule latency derived from Min windows is the lower bound
// M* of equation (2), achieved when no processor fails. The Max window
// follows equation (3): the replica waits for the *latest* copy of each
// predecessor; the latency derived from Max windows is the upper bound M of
// equation (4), guaranteed under any ε failures.
type Replica struct {
	Task dag.TaskID
	// Copy indexes the replica within its task, in [0, ε+1) for the plain
	// schedulers; FTBAR's Minimize-Start-Time duplication may add more.
	Copy int
	Proc platform.ProcID

	StartMin, FinishMin float64
	StartMax, FinishMax float64
}

// Pattern identifies which communications the schedule retains.
type Pattern int

const (
	// PatternAll: every replica of a predecessor sends to every replica of
	// its successor — FTSA, up to e(ε+1)² messages.
	PatternAll Pattern = iota
	// PatternMatched: each predecessor replica sends to exactly one
	// successor replica per precedence edge — MC-FTSA, e(ε+1) messages.
	PatternMatched
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternAll:
		return "all"
	case PatternMatched:
		return "matched"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Schedule is a complete fault-tolerant mapping of a DAG onto a platform.
type Schedule struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Costs    *platform.CostModel
	// Epsilon is the number of fail-stop processor failures the schedule
	// tolerates; every task carries at least ε+1 replicas on distinct
	// processors.
	Epsilon int
	// CommPattern records the retained communications.
	CommPattern Pattern
	// Algorithm names the scheduler that produced this schedule.
	Algorithm string

	replicas [][]Replica // indexed by task, then copy
	// mappingOrder is the order in which the scheduler mapped tasks; the
	// simulator replays per-processor queues in this order. It is a valid
	// topological order (schedulers only map free tasks).
	mappingOrder []dag.TaskID
	// matchedFrom[t][copy][predIdx] is, under PatternMatched, the copy
	// index of predecessor Graph.Preds(t)[predIdx] whose message this
	// replica consumes. nil under PatternAll.
	matchedFrom [][][]int

	// repArena is the contiguous backing store Place carves per-task replica
	// rows from, presized at New to the ε+1 replicas every task is expected
	// to carry. Rows are carved with exact capacity, so AddDuplicate's
	// appends copy-on-grow and never clobber a neighbor. One schedule is one
	// arena allocation instead of one per task.
	repArena []Replica
	// matchedRows/matchedInts are the arenas AllocMatched carves
	// receiver-indexed matching matrices from (PatternMatched only).
	matchedRows [][]int
	matchedInts []int
}

// Schedule construction and validation errors.
var (
	ErrEpsilon      = errors.New("sched: need 0 <= ε < processor count")
	ErrIncomplete   = errors.New("sched: task has no replicas")
	ErrReplicaCount = errors.New("sched: wrong replica count")
	ErrSpace        = errors.New("sched: replicas of a task share a processor")
	ErrOverlap      = errors.New("sched: overlapping executions on a processor")
	ErrPrecedence   = errors.New("sched: precedence violation")
	ErrMatching     = errors.New("sched: invalid communication matching")
	ErrNotScheduled = errors.New("sched: task not scheduled")
)

// New creates an empty schedule for the given problem. Every scheduler
// starts here, so this is the one place that checks ε's range (ErrEpsilon:
// active replication needs ε+1 distinct processors) and that the cost model
// has exactly one row per task and one column per processor.
func New(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, epsilon int, pattern Pattern, algorithm string) (*Schedule, error) {
	if epsilon < 0 || epsilon >= p.NumProcs() {
		return nil, fmt.Errorf("%w: ε=%d, m=%d", ErrEpsilon, epsilon, p.NumProcs())
	}
	if cm.NumTasks() != g.NumTasks() || cm.NumProcs() != p.NumProcs() {
		return nil, fmt.Errorf("sched: cost model %dx%d does not match graph (%d tasks) and platform (%d procs)",
			cm.NumTasks(), cm.NumProcs(), g.NumTasks(), p.NumProcs())
	}
	s := &Schedule{
		Graph:       g,
		Platform:    p,
		Costs:       cm,
		Epsilon:     epsilon,
		CommPattern: pattern,
		Algorithm:   algorithm,
		replicas:    make([][]Replica, g.NumTasks()),
		repArena:    make([]Replica, 0, g.NumTasks()*(epsilon+1)),
	}
	s.mappingOrder = make([]dag.TaskID, 0, g.NumTasks())
	if pattern == PatternMatched {
		s.matchedFrom = make([][][]int, g.NumTasks())
		s.matchedRows = make([][]int, 0, g.NumTasks()*(epsilon+1))
		s.matchedInts = make([]int, 0, (epsilon+1)*g.NumEdges())
	}
	return s, nil
}

// Place records the replicas of task t, in copy order, and appends t to the
// mapping order. It must be called exactly once per task.
func (s *Schedule) Place(t dag.TaskID, replicas []Replica) error {
	if !s.Graph.Valid(t) {
		return fmt.Errorf("%w: task %d", dag.ErrNoSuchTask, t)
	}
	if s.replicas[t] != nil {
		return fmt.Errorf("sched: task %d placed twice", t)
	}
	if len(replicas) == 0 {
		return fmt.Errorf("%w: task %d", ErrIncomplete, t)
	}
	for i := range replicas {
		r := &replicas[i]
		if r.Task != t || r.Copy != i {
			return fmt.Errorf("sched: replica %d of task %d mislabeled (task=%d copy=%d)", i, t, r.Task, r.Copy)
		}
		if !s.Platform.Valid(r.Proc) {
			return fmt.Errorf("sched: replica %d of task %d on invalid processor %d", i, t, r.Proc)
		}
	}
	off := len(s.repArena)
	if off+len(replicas) <= cap(s.repArena) {
		s.repArena = append(s.repArena, replicas...)
		s.replicas[t] = s.repArena[off : off+len(replicas) : off+len(replicas)]
	} else {
		// Replica counts past the presized ε+1 per task (FTBAR's duplication
		// can exceed it when Place sees pre-duplicated inputs) fall back to a
		// private row; rows already carved stay valid either way.
		s.replicas[t] = append([]Replica(nil), replicas...)
	}
	s.mappingOrder = append(s.mappingOrder, t)
	return nil
}

// SetMatchedSources records, under PatternMatched, the predecessor copy
// feeding each copy of t: src[copy][predIdx] = copy index within the
// predecessor's replicas.
func (s *Schedule) SetMatchedSources(t dag.TaskID, src [][]int) error {
	if s.CommPattern != PatternMatched {
		return fmt.Errorf("%w: schedule pattern is %v", ErrMatching, s.CommPattern)
	}
	s.matchedFrom[t] = src
	return nil
}

// Replicas returns the replicas of t in copy order (nil if unplaced). The
// slice is owned by the schedule.
func (s *Schedule) Replicas(t dag.TaskID) []Replica { return s.replicas[t] }

// MatchedSource returns, under PatternMatched, the predecessor copy feeding
// copy c of t for predecessor index predIdx.
func (s *Schedule) MatchedSource(t dag.TaskID, c, predIdx int) (int, error) {
	if s.CommPattern != PatternMatched {
		return 0, fmt.Errorf("%w: schedule pattern is %v", ErrMatching, s.CommPattern)
	}
	m := s.matchedFrom[t]
	if m == nil || c >= len(m) || predIdx >= len(m[c]) {
		return 0, fmt.Errorf("%w: no matching recorded for task %d copy %d pred %d", ErrMatching, t, c, predIdx)
	}
	return m[c][predIdx], nil
}

// MappingOrder returns the order in which tasks were mapped.
func (s *Schedule) MappingOrder() []dag.TaskID {
	return append([]dag.TaskID(nil), s.mappingOrder...)
}

// AppendMappingOrder appends the mapping order to buf and returns it — the
// allocation-free variant of MappingOrder for callers recycling scratch (the
// replay engine binds a pooled replayer per Evaluate worker).
func (s *Schedule) AppendMappingOrder(buf []dag.TaskID) []dag.TaskID {
	return append(buf, s.mappingOrder...)
}

// AllocMatched carves a k×npreds receiver-indexed matching matrix from the
// schedule's arena, zeroed, for the caller to fill and hand back through
// SetMatchedSources. Valid only under PatternMatched. The matrix shares the
// schedule's lifetime; MC-FTSA allocates one per task instead of k+1 heap
// objects per task.
func (s *Schedule) AllocMatched(k, npreds int) ([][]int, error) {
	if s.CommPattern != PatternMatched {
		return nil, fmt.Errorf("%w: schedule pattern is %v", ErrMatching, s.CommPattern)
	}
	rOff := len(s.matchedRows)
	if rOff+k > cap(s.matchedRows) {
		// Overflow block: rows already carved keep the old backing alive.
		s.matchedRows = make([][]int, 0, max(4*k, 2*cap(s.matchedRows)))
		rOff = 0
	}
	s.matchedRows = s.matchedRows[:rOff+k]
	rows := s.matchedRows[rOff : rOff+k : rOff+k]
	need := k * npreds
	iOff := len(s.matchedInts)
	if iOff+need > cap(s.matchedInts) {
		s.matchedInts = make([]int, 0, max(4*need, 2*cap(s.matchedInts)))
		iOff = 0
	}
	s.matchedInts = s.matchedInts[:iOff+need]
	ints := s.matchedInts[iOff : iOff+need]
	clear(ints)
	for c := 0; c < k; c++ {
		rows[c] = ints[c*npreds : (c+1)*npreds : (c+1)*npreds]
	}
	return rows, nil
}

// Complete reports whether every task has been placed.
func (s *Schedule) Complete() bool {
	for t := range s.replicas {
		if s.replicas[t] == nil {
			return false
		}
	}
	return true
}

// LowerBound returns M* (equation 2): the latency achieved when no processor
// fails — the maximum over exit tasks of the earliest replica finish time.
func (s *Schedule) LowerBound() float64 {
	bound := 0.0
	for _, t := range s.exits() {
		reps := s.replicas[t]
		if len(reps) == 0 {
			return math.Inf(1)
		}
		first := math.Inf(1)
		for _, r := range reps {
			if r.FinishMin < first {
				first = r.FinishMin
			}
		}
		if first > bound {
			bound = first
		}
	}
	return bound
}

// UpperBound returns M (equation 4): the latency guaranteed under any ε
// failures — the maximum over exit tasks of the latest replica finish time,
// with finish times computed pessimistically (equation 3).
func (s *Schedule) UpperBound() float64 {
	bound := 0.0
	for _, t := range s.exits() {
		reps := s.replicas[t]
		if len(reps) == 0 {
			return math.Inf(1)
		}
		for _, r := range reps {
			if r.FinishMax > bound {
				bound = r.FinishMax
			}
		}
	}
	return bound
}

// exits returns the graph's exit tasks: the frozen view's memoised list, so a
// bound allocates nothing, or a fresh walk of a graph that does not freeze.
func (s *Schedule) exits() []dag.TaskID {
	if f, err := s.Graph.Freeze(); err == nil {
		return f.Exits()
	}
	return s.Graph.Exits()
}

// ProcOrder is the one order in which every processor runs its replicas, as
// the Gantt chart, /schedule's gantt rows and Validate read it:
// order[lo[p]:lo[p+1]] is processor p's, by optimistic start (equation 1),
// then by mapping position and copy, so a zero-cost chain runs as mapped. It
// is computed per call and owned by the caller: schedules are read concurrently.
func (s *Schedule) ProcOrder() (order []Replica, lo []int) { return s.procOrderInto(nil, nil) }

// procOrderInto is ProcOrder into the storage of order and lo, grown when
// it is short; what they held is overwritten.
func (s *Schedule) procOrderInto(order []Replica, lo []int) ([]Replica, []int) {
	m := s.Platform.NumProcs()
	lo = slices.Grow(lo[:0], m+1)[:m+1]
	clear(lo)
	for _, t := range s.mappingOrder {
		for _, r := range s.replicas[t] {
			lo[r.Proc]++
		}
	}
	for p := 1; p <= m; p++ {
		lo[p] += lo[p-1]
	}
	// lo[p] is where bucket p ends; filling the buckets back to front, in
	// reverse (mapping position, copy) order, moves it to where bucket p starts.
	order = slices.Grow(order[:0], lo[m])[:lo[m]]
	for _, t := range slices.Backward(s.mappingOrder) {
		for _, r := range slices.Backward(s.replicas[t]) {
			lo[r.Proc]--
			order[lo[r.Proc]] = r
		}
	}
	for p := 0; p < m; p++ {
		slices.SortStableFunc(order[lo[p]:lo[p+1]], func(a, b Replica) int { return cmp.Compare(a.StartMin, b.StartMin) })
	}
	return order, lo
}

// window is r's optimistic (equation 1) or pessimistic (equation 3) window.
func (r Replica) window(pessimistic bool) (start, finish float64) {
	if pessimistic {
		return r.StartMax, r.FinishMax
	}
	return r.StartMin, r.FinishMin
}

// MessageCount returns the number of *inter-processor* messages the schedule
// requires (intra-processor transfers are free and not counted, matching the
// paper's remark that e(ε+1)² is only an upper bound for FTSA).
func (s *Schedule) MessageCount() int {
	if s.CommPattern == PatternAll {
		if n, ok := s.allPairsMessages(); ok {
			return n
		}
	}
	n := 0
	for t := 0; t < s.Graph.NumTasks(); t++ {
		tid := dag.TaskID(t)
		for predIdx, pe := range s.Graph.Preds(tid) {
			srcReps := s.replicas[pe.To]
			dstReps := s.replicas[tid]
			switch s.CommPattern {
			case PatternAll:
				for _, sr := range srcReps {
					for _, dr := range dstReps {
						if sr.Proc != dr.Proc {
							n++
						}
					}
				}
			case PatternMatched:
				for c, dr := range dstReps {
					k, err := s.MatchedSource(tid, c, predIdx)
					if err != nil {
						continue
					}
					if srcReps[k].Proc != dr.Proc {
						n++
					}
				}
			}
		}
	}
	return n
}

// allPairsMessages counts PatternAll's messages in O(E): an edge from S's
// replicas to D's sends |S|·|D| messages less one per processor both use.
// ok is false when a processor mask cannot say that — more than 64
// processors, or a task with two replicas on one processor — and the pair
// loop must count.
func (s *Schedule) allPairsMessages() (n int, ok bool) {
	if s.Platform.NumProcs() > 64 {
		return 0, false
	}
	for t, reps := range s.replicas {
		dst, ok := procMask(reps)
		if !ok {
			return 0, false
		}
		for _, pe := range s.Graph.Preds(dag.TaskID(t)) {
			src, ok := procMask(s.replicas[pe.To])
			if !ok {
				return 0, false
			}
			n += len(s.replicas[pe.To])*len(reps) - bits.OnesCount64(src&dst)
		}
	}
	return n, true
}

// procMask is the set of processors reps run on; ok is false when two of
// them share one.
func procMask(reps []Replica) (mask uint64, ok bool) {
	for _, r := range reps {
		bit := uint64(1) << r.Proc
		if mask&bit != 0 {
			return 0, false
		}
		mask |= bit
	}
	return mask, true
}
