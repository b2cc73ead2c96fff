// Package core implements the paper's primary contribution: FTSA (Fault
// Tolerant Scheduling Algorithm, Algorithm 4.1) and its communication-
// minimizing variant MC-FTSA (Section 4.2), registered as "ftsa", "mcftsa"
// and "ftsa-ins" and run through sched.Run; the package exports no
// scheduling function. A positive RunOptions.Latency selects Section 4.3's
// joint feasibility check: per-task deadlines are derived from the budget
// and a run stops with ErrDeadline at the first task that misses its own.
// The other bi-criteria driver, the largest ε within a latency budget, is
// sched.MaxToleratedFailures.
//
// Both schedulers are list schedulers driven by task criticalness — the sum
// of the dynamic top level tℓ(t) and the static bottom level bℓ(t). The
// paper keeps the free list α in an AVL tree; here it is
// kernel.PriorityList, a slice-backed binary heap over the same total order
// (priority, random tie, task ID), held in the run's pooled scratch. A list
// scheduler only inserts into α and extracts its head, and the order has no
// equal keys, so the heap pops the sequence the tree would, at the same
// O(log n), without one node allocation per task.
//
// Every popped task is mapped onto the ε+1 distinct processors minimizing
// its earliest finish time (equation 1), which needs the optimistic arrival
// on all m processors and nothing else. The pessimistic window of equation
// (3), which yields the schedule's guaranteed upper bound, is then computed
// on the ε+1 selected processors only (kernel.Board.ArrivalMaxOn). MC-FTSA
// skips that step: it thins each precedence edge's (ε+1)² messages down to
// ε+1 via a robust bipartite matching (internal/bipartite) and derives both
// windows of every replica from its matched sources.
//
// Hot-path notes for callers scheduling many instances back to back (the
// campaign engine, the serving layer): RunOptions.BottomLevels lets one
// bℓ computation be shared across runs on the same instance, and the
// per-run working buffers are pooled so steady-state allocation stays flat.
package core
