package schedulers

import (
	"testing"

	"ftsched/internal/sched"
)

// BenchmarkSchedule runs every registered scheduler through the registry's
// uniform entry point on the fixed golden instance (≈125 tasks, 20 procs,
// ε=2 for the fault-tolerant schedulers), plus FTBAR at ε=5 — the Figure 1–3
// grid's most expensive cell. The allocation counts are the scoreboard for
// the pooled placement state: what is left is the schedule itself (replica
// slices, mapping order) and, for the FTSA family, one ready-list node per
// task. Allocs/op by stage — before the kernel, with the kernel, with
// FTBAR's arrival memo: ftsa 332 / 113 / 113, mcftsa 8206 / 116 / 116, ftbar
// 6981 / 4818 / 17, heft 197 / 7 / 5.
func BenchmarkSchedule(b *testing.B) {
	inst := goldenInstance(b)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	bl, err := sched.AvgBottomLevels(g, cm, p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(leg, name string, eps int) {
		opt := sched.RunOptions{Epsilon: eps, BottomLevels: bl}
		b.Run(leg, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(name, g, p, cm, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, info := range sched.Registrations() {
		eps := 0
		if info.FaultTolerant {
			eps = 2
		}
		run(info.Name(), info.Name(), eps)
	}
	run("ftbar/eps=5", "ftbar", 5)
}
