// Package kernel is the shared placement machinery under every scheduler in
// this repository. FTSA, MC-FTSA, FTBAR and HEFT all answer the same three
// questions on every step — "when can this task's inputs arrive on each
// processor?", "when can the processor actually run it?", and "which free
// task comes next?" — and before this package existed each scheduler carried
// its own copy of the answers.
//
// The kernel factors them into four pieces:
//
//   - Board: per-processor placement state for one scheduling run —
//     optimistic and pessimistic ready times, arrival-window scratch filled
//     by Arrivals (equations 1 and 3 of the paper), and, when insertion is
//     enabled, one busy Timeline per processor. Boards are pooled via
//     sync.Pool, so a campaign scheduling thousands of instances back to
//     back allocates per-processor state once per worker, not once per run.
//     Arrivals works row-wise: for each replica of each predecessor it makes
//     one pass over the delay row of the replica's processor
//     (platform.DelayRow, contiguous) and folds finish + V·d into
//     per-processor min/max scratch, instead of asking sched.ArrivalWindow
//     once per (predecessor, processor) with a doubly indexed delay lookup
//     inside. Same additions, same comparisons, another loop order — the
//     windows are bit-equal to that fold (pinned by test).
//
//   - Timeline: one processor's busy intervals, kept sorted by start time,
//     with insertion-based earliest-slot search (EarliestFit scans the gaps
//     between busy slots; boards created with insertion disabled fall back
//     to append-only placement from the ready times). This is the mechanism
//     behind HEFT's insertion policy and the registry-only "ftsa-ins"
//     variant.
//
//   - Ready lists: PriorityList, the AVL-backed priority list α of Section
//     4.1 (O(log n) push/pop by criticalness, random tie-breaking), and Set,
//     the insertion-ordered free-task set for schedulers that re-evaluate
//     every free task each step (FTBAR's most-urgent-pair scan).
//
//   - KeepSmallest: the k smallest of the m (value, processor) choices a
//     scheduler offers, by insertion into a k-slot buffer. FTSA's ε+1
//     minimum-finish-time processors and FTBAR's Npf+1 minimum-pressure ones
//     both come from it, ordered exactly as sorting all m by (value,
//     processor) and truncating would order them, without sorting the m−k
//     that are dropped.
//
// The kernel is deliberately policy-free: what value a processor is ranked
// by (finish time, pressure) and how many are kept stays in the schedulers.
// What the kernel guarantees is that the shared arithmetic — arrival
// windows, ready-time advancement, slot search, ranked selection — is
// computed once, the same way, with pooled storage, for every scheduler in
// the registry.
//
// Board.Arrivals walks the frozen CSR view (dag.Flat): callers freeze the
// graph once per run and every per-task step indexes flat int32/float64
// predecessor arrays instead of chasing adjacency headers. The package also
// exports the Grow/GrowZero generics the schedulers use for their own pooled
// scratch.
package kernel
