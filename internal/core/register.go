package core

import "ftsched/internal/sched"

// This file wires the package's schedulers into the sched registry. Every
// dispatch site (the serving layer, the campaign engine, the CLIs) resolves
// schedulers by name through sched.Run; adding a variant here — and only
// here — makes it reachable end-to-end through /schedule, campaign grids and
// the binaries.
func init() {
	sched.Register(sched.Registration{
		Scheduler:     sched.Func("ftsa", ftsa),
		Description:   "the paper's Fault Tolerant Scheduling Algorithm (Algorithm 4.1): criticalness-ordered list scheduling, ε+1 earliest-finish-time replicas per task, full communication pattern",
		FaultTolerant: true,
		Deadlines:     true,
	})
	sched.Register(sched.Registration{
		Scheduler:     sched.Func("mcftsa", mcftsa),
		Aliases:       []string{"mc-ftsa"},
		Description:   "Minimum-Communications FTSA (Section 4.2): identical mapping, but each precedence edge keeps exactly ε+1 messages via a robust bipartite matching",
		FaultTolerant: true,
		Policies:      []string{"greedy", "bottleneck"},
		DefaultPolicy: "greedy",
		Deadlines:     true,
	})
	sched.Register(sched.Registration{
		Scheduler:     sched.Func("ftsa-ins", ftsaIns),
		Aliases:       []string{"ftsains"},
		Description:   "registry-only variant: FTSA's selection with HEFT-style insertion-based placement — optimistic windows fill earliest timeline gaps via the shared kernel",
		FaultTolerant: true,
		Deadlines:     true,
	})
}
