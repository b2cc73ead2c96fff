package mission

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ftsched/internal/dag"
	"ftsched/internal/kernel"
	"ftsched/internal/lazyrand"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
)

// Policy selects how a mission reacts to observed failures.
type Policy string

const (
	// PolicyStatic commits to the initial schedule and rides out failures
	// on its replication alone — the paper's offline model, executed online.
	PolicyStatic Policy = "static"
	// PolicyReschedule re-plans the surviving suffix of the DAG on the
	// surviving processors after every observed crash.
	PolicyReschedule Policy = "reschedule"
)

// ParsePolicy maps the wire spelling to a Policy; empty selects
// PolicyReschedule (the policy that makes a mission more than a replay).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", string(PolicyReschedule):
		return PolicyReschedule, nil
	case string(PolicyStatic):
		return PolicyStatic, nil
	}
	return "", fmt.Errorf("mission: unknown policy %q (want %q or %q)", s, PolicyStatic, PolicyReschedule)
}

// Spec is the immutable description of a mission: the problem instance, the
// scheduler configuration the serving layer would hand /schedule, and the
// reaction policy. The outcome is a pure function of (Spec, Scenario).
type Spec struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Costs    *platform.CostModel
	// Scheduler is the registry name; Epsilon and SchedPolicy mirror
	// RunOptions.
	Epsilon     int
	Scheduler   string
	SchedPolicy string
	// Seed seeds scheduler tie-breaking: segment 0 uses Seed directly
	// (matching the serving layer's /schedule), segment k uses
	// sim.TrialSeed(Seed, k). Zero keeps tie-breaking deterministic by ID.
	Seed int64
	// Policy defaults to PolicyReschedule when empty.
	Policy Policy
	// BottomLevels optionally supplies the instance's precomputed
	// sched.AvgBottomLevels (the batch evaluator shares one slice across
	// policies and trials); nil computes them.
	BottomLevels []float64
	// TaskEvents adds one event per task completion to the log. Off by
	// default: the batch evaluator runs thousands of missions and only the
	// API's event log wants V extra lines.
	TaskEvents bool
}

// Outcome is a mission's final report.
type Outcome struct {
	Success bool    `json:"success"`
	Latency float64 `json:"latency"`
	// Crashes counts failures observed before the mission ended; Replans
	// counts re-scheduling rounds (PolicyStatic always reports 0).
	Crashes int `json:"crashes"`
	Replans int `json:"replans"`
	// BLTouched totals the bottom-level entries the incremental repair
	// recomputed across all replans — the work a full O(V+E) recompute per
	// event would have multiplied.
	BLTouched int `json:"bl_touched"`
	// Events is the total event count (independent of whether a sink was
	// attached).
	Events int    `json:"events"`
	Reason string `json:"reason,omitempty"`
}

// pendEv is one not-yet-emitted observation; segments buffer and sort them
// so the log order is (time, kind, ID)-deterministic. Tasks sort before
// crashes at equal time: a replica finishing exactly at a crash instant
// completed (replay kills only end > crash).
type pendEv struct {
	t    float64
	rank int // 0 task, 1 crash
	id   int
}

// Controller runs missions for one Spec. It caches the initial plan and the
// frozen-graph cost state, so one controller amortizes NewController's
// scheduling run across many scenarios. Not safe for concurrent use; the
// batch evaluator binds one per worker.
type Controller struct {
	spec Spec
	f    *dag.Flat
	m    int

	// Immutable per-spec state: the segment-0 plan and the full graph's
	// average costs and bottom levels on the full platform.
	plan0   *sched.Schedule
	node0   []float64
	edge0   []float64
	bl0     []float64
	updater *dag.BottomLevelUpdater

	// Per-run scratch, reset by Run.
	node       []float64
	edge       []float64
	bl         []float64
	alive      []bool
	completed  []bool
	completeAt []float64
	finishes   []float64
	relCrash   []float64
	subTasks   []dag.TaskID
	subProcs   []platform.ProcID
	origToSub  []int32
	subBL      []float64
	dirty      []dag.TaskID
	pend       []pendEv
}

// NewController validates the spec and computes the segment-0 schedule.
func NewController(spec Spec) (*Controller, error) {
	if spec.Graph == nil || spec.Platform == nil || spec.Costs == nil {
		return nil, errors.New("mission: spec needs a graph, a platform and a cost model")
	}
	if spec.Policy == "" {
		spec.Policy = PolicyReschedule
	}
	if spec.Policy != PolicyStatic && spec.Policy != PolicyReschedule {
		return nil, fmt.Errorf("mission: unknown policy %q", spec.Policy)
	}
	f, err := spec.Graph.Freeze()
	if err != nil {
		return nil, err
	}
	node, edge := sched.AvgCosts(f, spec.Costs, spec.Platform)
	bl := spec.BottomLevels
	if bl == nil {
		bl = f.BottomLevels(node, edge, nil)
	} else if len(bl) != f.NumTasks() {
		return nil, fmt.Errorf("mission: %d bottom levels for %d tasks", len(bl), f.NumTasks())
	}
	c := &Controller{
		spec:    spec,
		f:       f,
		m:       spec.Platform.NumProcs(),
		node0:   node,
		edge0:   edge,
		bl0:     bl,
		updater: f.NewBottomLevelUpdater(),
	}
	c.plan0, err = sched.Run(spec.Scheduler, spec.Graph, spec.Platform, spec.Costs, sched.RunOptions{
		Epsilon:      spec.Epsilon,
		Rng:          c.rngFor(0),
		BottomLevels: bl,
		Policy:       spec.SchedPolicy,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// InitialPlan returns the segment-0 schedule (shared; read-only).
func (c *Controller) InitialPlan() *sched.Schedule { return c.plan0 }

// rngFor returns the tie-breaking stream for one segment's scheduling run.
// Segment 0 must match what the serving layer does for a plain /schedule
// with the same seed — that identity is what makes a static-policy mission
// and the offline pipeline agree bit for bit.
func (c *Controller) rngFor(seg int) *rand.Rand {
	if c.spec.Seed == 0 {
		return nil
	}
	if seg == 0 {
		return lazyrand.New(c.spec.Seed)
	}
	return lazyrand.New(sim.TrialSeed(c.spec.Seed, seg))
}

// Run executes one mission under the failure scenario, streaming events to
// emit (nil: count only). err is reserved for structural problems — an
// aborted mission is a report (Success false, Reason set), not an error.
func (c *Controller) Run(sc sim.Scenario, emit func(line []byte)) (Outcome, error) {
	if len(sc.CrashTime) != c.m {
		return Outcome{}, fmt.Errorf("mission: scenario covers %d processors, platform has %d", len(sc.CrashTime), c.m)
	}
	w := newEventWriter(emit)
	var out Outcome
	var err error
	if c.spec.Policy == PolicyStatic {
		out, err = c.runStatic(sc, w)
	} else {
		out, err = c.runReschedule(sc, w)
	}
	if err == nil {
		err = w.err()
	}
	if err != nil {
		return Outcome{}, err
	}
	out.Events = w.seq
	return out, nil
}

// runStatic replays the initial plan once; crashes are logged but nothing
// reacts to them. Semantics (and therefore success/latency) are exactly
// sim.Evaluate's, pinned by test.
func (c *Controller) runStatic(sc sim.Scenario, w *eventWriter) (Outcome, error) {
	fin, lat, ok, err := sim.ReplayTaskFinishes(c.plan0, sc, sim.Options{}, c.finishes)
	c.finishes = fin
	if err != nil {
		return Outcome{}, err
	}
	w.plan(evPlan{
		T: 0, Kind: EventPlan, Scheduler: c.plan0.Algorithm, Epsilon: c.plan0.Epsilon,
		Tasks: c.f.NumTasks(), Procs: c.m, Lower: c.plan0.LowerBound(), Upper: c.plan0.UpperBound(),
	})
	// The mission ends at the makespan on success, or after the last
	// observable event on failure. A crash at exactly the end instant kills
	// nothing (replay kills only end > crash), so it is not observed.
	end := lat
	if !ok {
		end = math.Inf(1)
	}
	tEnd := 0.0
	c.pend = c.pend[:0]
	if c.spec.TaskEvents {
		for t, f := range fin {
			if !math.IsInf(f, 1) {
				c.pend = append(c.pend, pendEv{t: f, rank: 0, id: t})
			}
		}
	}
	crashes := 0
	for p, crash := range sc.CrashTime {
		if crash < end {
			c.pend = append(c.pend, pendEv{t: crash, rank: 1, id: p})
			crashes++
		}
	}
	for _, e := range c.pend {
		if e.t > tEnd {
			tEnd = e.t
		}
	}
	c.flushPend(w)
	if ok {
		w.end(lat, true, lat, crashes, 0, "")
		return Outcome{Success: true, Latency: lat, Crashes: crashes}, nil
	}
	w.end(tEnd, false, 0, crashes, 0, reasonNotSurvived)
	return Outcome{Success: false, Crashes: crashes, Reason: reasonNotSurvived}, nil
}

const reasonNotSurvived = "schedule did not survive the failure scenario"

// runReschedule runs the segment loop: replay the current plan, stop the
// world at the earliest crash among the segment's processors, bank what
// completed, and re-plan the suffix on the survivors.
func (c *Controller) runReschedule(sc sim.Scenario, w *eventWriter) (Outcome, error) {
	v := c.f.NumTasks()
	c.node = append(c.node[:0], c.node0...)
	c.edge = append(c.edge[:0], c.edge0...)
	c.bl = append(c.bl[:0], c.bl0...)
	c.alive = kernel.Grow(c.alive, c.m)
	for i := range c.alive {
		c.alive[i] = true
	}
	aliveCount := c.m
	c.completed = kernel.GrowZero(c.completed, v)
	c.completeAt = kernel.Grow(c.completeAt, v)
	for i := range c.completeAt {
		c.completeAt[i] = math.Inf(1)
	}
	remaining := v

	// Segment 0 is the identity sub-instance: the full graph on the full
	// platform under the cached initial plan.
	c.subTasks = kernel.Grow(c.subTasks, v)
	for t := range c.subTasks {
		c.subTasks[t] = dag.TaskID(t)
	}
	c.subProcs = kernel.Grow(c.subProcs, c.m)
	for p := range c.subProcs {
		c.subProcs[p] = platform.ProcID(p)
	}
	plan := c.plan0
	T := 0.0
	var crashes, replans, touched, segTouched int

	for seg := 0; ; seg++ {
		kind := EventPlan
		if seg > 0 {
			kind = EventReplan
		}
		w.plan(evPlan{
			T: T, Kind: kind, Scheduler: plan.Algorithm, Epsilon: plan.Epsilon,
			Tasks: len(c.subTasks), Procs: len(c.subProcs),
			Lower: T + plan.LowerBound(), Upper: T + plan.UpperBound(),
			BLTouched: segTouched,
		})

		// Replay the segment in its own clock: crash times shift by -T.
		// Segment procs always satisfy crash > T (or seg 0, where crash 0
		// means dead from the start — replay's convention too).
		c.relCrash = kernel.Grow(c.relCrash, len(c.subProcs))
		for i, p := range c.subProcs {
			if cr := sc.CrashTime[p]; math.IsInf(cr, 1) {
				c.relCrash[i] = cr
			} else {
				c.relCrash[i] = cr - T
			}
		}
		fin, segLat, ok, err := sim.ReplayTaskFinishes(plan, sim.Scenario{CrashTime: c.relCrash}, sim.Options{}, c.finishes)
		c.finishes = fin
		if err != nil {
			return Outcome{}, err
		}

		// The next observation instant: the earliest crash among this
		// segment's processors (earlier crashes were consumed by previous
		// segments).
		cNext := math.Inf(1)
		for _, p := range c.subProcs {
			if cr := sc.CrashTime[p]; cr < cNext {
				cNext = cr
			}
		}

		if ok && T+segLat <= cNext {
			// The segment delivers every remaining task before the next
			// failure: mission complete.
			c.pend = c.pend[:0]
			for i, f := range fin[:len(c.subTasks)] {
				if t := c.subTasks[i]; !math.IsInf(f, 1) && !c.completed[t] {
					c.completed[t] = true
					c.completeAt[t] = T + f
					remaining--
					if c.spec.TaskEvents {
						c.pend = append(c.pend, pendEv{t: T + f, rank: 0, id: int(t)})
					}
				}
			}
			c.flushPend(w)
			lat := T + segLat
			w.end(lat, true, lat, crashes, replans, "")
			return Outcome{Success: true, Latency: lat, Crashes: crashes, Replans: replans, BLTouched: touched}, nil
		}
		if math.IsInf(cNext, 1) {
			// No further failure will arrive, yet the plan starved. With
			// every segment processor alive past the horizon this cannot
			// happen for a valid plan; defend rather than spin.
			w.end(T, false, 0, crashes, replans, reasonStarved)
			return Outcome{Success: false, Crashes: crashes, Replans: replans, BLTouched: touched, Reason: reasonStarved}, nil
		}

		// Stop the world at cNext: bank completions up to and including the
		// crash instant (a replica finishing exactly then completed), lose
		// in-flight work, observe the crash(es).
		c.pend = c.pend[:0]
		for i, f := range fin[:len(c.subTasks)] {
			if math.IsInf(f, 1) {
				continue
			}
			af := T + f
			if af > cNext {
				continue
			}
			t := c.subTasks[i]
			if c.completed[t] {
				continue
			}
			c.completed[t] = true
			c.completeAt[t] = af
			remaining--
			if c.spec.TaskEvents {
				c.pend = append(c.pend, pendEv{t: af, rank: 0, id: int(t)})
			}
		}
		for _, p := range c.subProcs {
			if sc.CrashTime[p] == cNext {
				c.pend = append(c.pend, pendEv{t: cNext, rank: 1, id: int(p)})
				c.alive[p] = false
				aliveCount--
				crashes++
			}
		}
		c.flushPend(w)

		if remaining == 0 {
			// Everything was already banked by the crash instant. (A
			// complete delivery also satisfies the success branch above, so
			// this is defensive.)
			lat := 0.0
			for _, at := range c.completeAt {
				if at > lat {
					lat = at
				}
			}
			w.end(lat, true, lat, crashes, replans, "")
			return Outcome{Success: true, Latency: lat, Crashes: crashes, Replans: replans, BLTouched: touched}, nil
		}
		if aliveCount == 0 {
			w.end(cNext, false, 0, crashes, replans, reasonAllDead)
			return Outcome{Success: false, Crashes: crashes, Replans: replans, BLTouched: touched, Reason: reasonAllDead}, nil
		}

		T = cNext
		replans++
		var rerr error
		plan, segTouched, rerr = c.replan(seg + 1)
		if rerr != nil {
			reason := "re-scheduling failed: " + rerr.Error()
			w.end(T, false, 0, crashes, replans, reason)
			return Outcome{Success: false, Crashes: crashes, Replans: replans, BLTouched: touched, Reason: reason}, nil
		}
		touched += segTouched
	}
}

const (
	reasonStarved = "segment starved with no further failures"
	reasonAllDead = "all processors failed"
)

// replan rebuilds the surviving suffix as a standalone sub-instance and
// schedules it. The incremental bottom-level repair marks dirty only the
// tasks whose survivor-average node or edge costs changed, so uniform
// platforms repair almost nothing; the repaired levels restricted to the
// suffix equal sched.AvgBottomLevels of the sub-instance bit for bit
// (pinned by TestReplanBottomLevelsExact).
func (c *Controller) replan(seg int) (*sched.Schedule, int, error) {
	v := c.f.NumTasks()
	c.subProcs = c.subProcs[:0]
	for p := 0; p < c.m; p++ {
		if c.alive[p] {
			c.subProcs = append(c.subProcs, platform.ProcID(p))
		}
	}
	alive := len(c.subProcs)
	delays := make([][]float64, alive)
	for i, pi := range c.subProcs {
		row := make([]float64, alive)
		for j, pj := range c.subProcs {
			row[j] = c.spec.Platform.Delay(pi, pj)
		}
		delays[i] = row
	}
	subP, err := platform.NewFromDelays(delays)
	if err != nil {
		return nil, 0, err
	}
	meanD := subP.MeanDelay()

	c.subTasks = c.subTasks[:0]
	c.origToSub = kernel.Grow(c.origToSub, v)
	for t := 0; t < v; t++ {
		if c.completed[t] {
			c.origToSub[t] = -1
		} else {
			c.origToSub[t] = int32(len(c.subTasks))
			c.subTasks = append(c.subTasks, dag.TaskID(t))
		}
	}

	// Repair the full graph's average costs for the survivor platform. The
	// node mean sums costs in ascending survivor order — the exact operation
	// order CostModel.Mean applies to the sub-instance's rows — so equal
	// values stay bit-equal and the dirty set stays minimal.
	c.dirty = c.dirty[:0]
	for _, t := range c.subTasks {
		changed := false
		sum := 0.0
		for _, p := range c.subProcs {
			sum += c.spec.Costs.Cost(t, p)
		}
		if nn := sum / float64(alive); nn != c.node[t] {
			c.node[t] = nn
			changed = true
		}
		lo := int(c.f.SuccEdgeLo(t))
		for k, vol := range c.f.SuccVolumes(t) {
			if ne := vol * meanD; ne != c.edge[lo+k] {
				c.edge[lo+k] = ne
				changed = true
			}
		}
		if changed {
			c.dirty = append(c.dirty, t)
		}
	}
	segTouched := c.updater.Update(c.bl, c.node, c.edge, c.dirty)

	// Dense sub-instance: surviving tasks renumbered in ascending original
	// order, costs restricted to survivors. The suffix is successor-closed
	// (a completed task's predecessors completed earlier), so every
	// successor edge stays inside it.
	subG := dag.NewWithTasks(fmt.Sprintf("%s+seg%d", c.spec.Graph.Name(), seg), len(c.subTasks))
	costRows := make([][]float64, len(c.subTasks))
	c.subBL = kernel.Grow(c.subBL, len(c.subTasks))
	for i, t := range c.subTasks {
		row := make([]float64, alive)
		for j, p := range c.subProcs {
			row[j] = c.spec.Costs.Cost(t, p)
		}
		costRows[i] = row
		c.subBL[i] = c.bl[t]
		vols := c.f.SuccVolumes(t)
		for k, sRaw := range c.f.SuccIDs(t) {
			st := c.origToSub[sRaw]
			if st < 0 {
				return nil, 0, fmt.Errorf("mission: completed task %d is a successor of remaining task %d", sRaw, t)
			}
			if err := subG.AddEdge(dag.TaskID(i), dag.TaskID(st), vols[k]); err != nil {
				return nil, 0, err
			}
		}
	}
	subCM, err := platform.NewCostModelFromMatrix(costRows)
	if err != nil {
		return nil, 0, err
	}
	eps := c.spec.Epsilon
	if eps > alive-1 {
		eps = alive - 1
	}
	plan, err := sched.Run(c.spec.Scheduler, subG, subP, subCM, sched.RunOptions{
		Epsilon:      eps,
		Rng:          c.rngFor(seg),
		BottomLevels: c.subBL,
		Policy:       c.spec.SchedPolicy,
	})
	if err != nil {
		return nil, 0, err
	}
	return plan, segTouched, nil
}

// flushPend emits the buffered observations in (time, kind, ID) order —
// the total order that makes logs byte-identical across runs.
func (c *Controller) flushPend(w *eventWriter) {
	sort.Slice(c.pend, func(i, j int) bool {
		a, b := c.pend[i], c.pend[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.id < b.id
	})
	for _, e := range c.pend {
		if e.rank == 0 {
			w.task(e.t, e.id)
		} else {
			w.crash(e.t, e.id)
		}
	}
}
