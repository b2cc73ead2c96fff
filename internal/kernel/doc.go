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
//     optimistic and pessimistic ready times, the earliest-arrival row
//     filled by Arrivals (equation 1 of the paper), and, when insertion is
//     enabled, one busy Timeline per processor. Boards are pooled via
//     sync.Pool, so a campaign scheduling thousands of instances back to
//     back allocates per-processor state once per worker, not once per run.
//     Arrivals works row-wise: for each replica of each predecessor it makes
//     one pass over the delay row of the replica's processor
//     (platform.DelayRow, contiguous) and folds finish + V·d into the row,
//     instead of asking sched.ArrivalWindow once per (predecessor,
//     processor) with a doubly indexed delay lookup inside. Same additions,
//     same min/max folds, another loop order — bit-equal to that fold
//     (pinned by test against the two-sided m-wide fold it replaced).
//
//     Only the half of the arrival window a scheduler reads is computed.
//     Every scheduler selects processors on equation (1) alone, so the
//     m-wide row is the optimistic one and nothing else. The pessimistic
//     arrival of equation (3) matters on the processors that were selected:
//     FTSA and ftsa-ins ask ArrivalMaxOn for their ε+1 of them, FTBAR folds
//     both halves down its Npf+1 chosen columns after duplication, MC-FTSA
//     recomputes both windows from the matched sources and asks for
//     neither, and HEFT (ε = 0, one replica) has no pessimistic window.
//
//   - Timeline: one processor's busy intervals, kept sorted by start time,
//     with insertion-based earliest-slot search (EarliestFit scans the gaps
//     between busy slots; boards created with insertion disabled fall back
//     to append-only placement from the ready times). This is the mechanism
//     behind HEFT's insertion policy and the registry-only "ftsa-ins"
//     variant.
//
//   - Ready lists: PriorityList, the priority list α of Section 4.1
//     (O(log n) push/pop by criticalness, random tie-breaking), and Set, the
//     insertion-ordered free-task set for schedulers that re-evaluate every
//     free task each step (FTBAR's most-urgent-pair scan). The paper keeps α
//     in an AVL tree; PriorityList is a binary max-heap in a slice. All a
//     list scheduler asks of α is "insert" and "extract H(α)", and the order
//     (priority, tie, task ID) has no equal keys, so the maximum of any live
//     set is unique: a heap pops exactly the sequence the tree pops (pinned
//     against a sort of the live set here, and against the tree itself in
//     internal/avl's tests), at the same O(log n) per operation, with no
//     node allocated per task — the list lives in the scheduler's pooled
//     scratch.
//
//   - KeepSmallest: the k smallest of the m (value, processor) choices a
//     scheduler offers, by insertion into a k-slot buffer. FTSA's ε+1
//     minimum-finish-time processors and FTBAR's Npf+1 minimum-pressure ones
//     both come from it, ordered exactly as sorting all m by (value,
//     processor) and truncating would order them, without sorting the m−k
//     that are dropped. Both callers offer processors in ascending index, so
//     once k are held an offer whose value is not below the k-th cannot
//     enter; they test that themselves and call only for offers that do.
//
// Folds are written with the built-in min and max, never as
// "if a < x { x = a }": on amd64 they compile to branch-free MINSD/MAXSD
// sequences, where the comparison branch depended on the data and was the
// hottest line of every scheduler. The two forms differ only when a value is
// NaN or on a tie between +0 and -0, so they give the same bits under the
// precondition the inputs are held to: every delay, cost and volume is
// finite and non-negative (platform's constructors, CostModel.Scale and
// dag.Graph.AddEdge refuse NaN and ±Inf), and every fold starts from +0, a
// finite sum or the +Inf "no replica" sentinel, so no -0 arises. Selection,
// which has to branch (KeepSmallest, the callers' skip test,
// Timeline.EarliestFit), keeps its comparisons. The replayer in
// sim/replay.go is the exception that still folds by comparison until the
// replay order is settled (ROADMAP item 1).
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
