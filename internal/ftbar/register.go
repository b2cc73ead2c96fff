package ftbar

import "ftsched/internal/sched"

func init() {
	sched.Register(sched.Registration{
		Scheduler:     sched.Func("ftbar", schedule),
		Description:   "re-implemented comparison baseline of Girault et al. (Section 5): most-urgent-pair selection with Minimize-Start-Time duplication",
		FaultTolerant: true,
		Policies:      []string{"noduplication"},
	})
}
