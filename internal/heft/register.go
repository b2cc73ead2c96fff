package heft

import "ftsched/internal/sched"

func init() {
	sched.Register(sched.Registration{
		Scheduler:   sched.Func("heft", schedule),
		Description: "non-fault-tolerant reference (Topcuoglu et al.): upward-rank list scheduling with insertion-based earliest-finish-time placement",
		Policies:    []string{"noinsertion"},
		IgnoresRng:  true,
	})
}
