// Package ftbar re-implements the comparison baseline of the paper: FTBAR
// (Fault Tolerance Based Active Replication; Girault, Kalla, Sighireanu,
// Sorel, DSN'03), following the description in Section 5 of the paper.
//
// FTBAR is a list-scheduling heuristic driven by the *schedule pressure*
// cost function
//
//	σ(n)(ti,pj) = S(n)(ti,pj) + s(ti) − R(n−1)
//
// where S(n)(ti,pj) is the earliest start time of ti on pj given the current
// partial schedule, s(ti) the latest start time of ti measured bottom-up
// (computed here, as in the original, from average execution and
// communication costs), and R(n−1) the schedule length at the previous step.
// At every step FTBAR evaluates σ for *every* free task on *every*
// processor, keeps for each task the Npf+1 processors of minimum pressure,
// selects the most urgent (maximum pressure) task-processor pair, and
// schedules that task on its Npf+1 processors. The recursive
// Minimize-Start-Time procedure of Ahmad and Kwok is then applied to reduce
// the start time of the selected task by duplicating critical predecessors
// onto the chosen processors.
//
// The full per-step rescan of all free tasks (instead of FTSA's O(log ω)
// AVL head extraction) is what gives FTBAR its O(P·N³) running time, which
// Table 1 of the paper measures.
//
// # What a step recomputes
//
// The rescan stays: every step evaluates σ for every free task on every
// processor, because S(n)(t,p) = max(arrival(t,p), r(p)) and both r(p) and
// R(n−1) move each step. What does not move is arrival(t,·). It depends only
// on the replicas of t's predecessors, and those were all placed before t
// became free; so each free task's arrival row (m floats, kernel
// Board.Arrivals' ArrMin) is computed when the task is first scanned and
// kept until it is placed. One thing invalidates it: Minimize-Start-Time
// appending a duplicate of some task c (sched.AddDuplicate in reduceArrival)
// gives every successor of c a new, possibly earlier, source — the task being
// placed and any other free task that shares c — so a successful duplication
// marks all of c's successors stale and their rows are refilled on the next
// scan.
//
// Minimize-Start-Time and placement ask the transposed question — what
// reaches one processor from wherever the copies of a few predecessors sit —
// so they fold down a column of the delay matrix (scratch.delayTo, d
// transposed once per run) instead of through sched.ArrivalWindow's row
// lookups, and lean on the memo where it already holds the answer. While t's
// row is current its entry for the processor is the latest of the
// predecessors' earliest arrivals, so the search for the critical predecessor
// stops at the first one that attains it (criticalPred); and the row of the
// critical predecessor is when a duplicate of it could have its own inputs
// there, so that second fold is skipped outright and the pessimistic side is
// only computed for a duplicate that is actually made. The selected task's
// window is then computed for its Npf+1 chosen processors only, after its
// duplications, since placement also needs the pessimistic side.
//
// σ itself is evaluated exactly as written, est + s(t) − R with R left in
// (dropping the common term would change how float ties fall), free tasks are
// scanned in the same order and compared against the running best in the
// same way, so an Options.Rng sees the same draws; the Npf+1 minimum-pressure
// processors come from kernel.KeepSmallest, which orders by (pressure,
// processor) as sorting all m would. The schedules are therefore
// bit-identical to those of the literal step, which survives as the oracle
// of this package's tests (literal_test.go). What changed is the constant:
// the per-step scan costs m comparisons per free task instead of one
// arrival-window fold over predecessors × replicas × m, and Table 1's
// FTBAR/FTSA ratio on this implementation is 3–4, still growing with the task
// count, where the literal step read 5–29 (see expt.RunTable1).
package ftbar
