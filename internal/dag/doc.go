// Package dag implements the weighted directed acyclic task-graph model used
// throughout the scheduler: tasks (nodes), precedence constraints (edges) and
// the data volume V(ti,tj) attached to every edge.
//
// The graph lives in two representations:
//
//   - Graph is the mutable build/wire form. Tasks are dense integer IDs in
//     [0, NumTasks); successor and predecessor adjacency rows are both
//     maintained so either direction walks in O(degree). JSON decoding
//     rebuilds into a per-graph arena, so a pooled graph decodes repeated
//     same-shaped payloads without adjacency allocations.
//
//   - Flat is the frozen compute form, obtained from Graph.Freeze: a CSR
//     (compressed sparse row) view with int32 successor/predecessor arrays,
//     contiguous edge volumes in edge-ID order, and the topological order,
//     its reverse, per-task positions and the exit list memoized at freeze
//     time. Freeze is memoized on the graph and invalidated by every
//     mutation.
//
// There is one traversal: every topological walk and longest path runs on
// Flat. Flat.BottomLevels computes the bottom levels of Section 4.1 over
// precomputed per-task and per-edge-ID cost slices, and
// Flat.NewBottomLevelUpdater repairs them incrementally after cost
// perturbations, touching only the ancestor cone that actually changes.
// Graph's own analyses (Validate, Levels, Width) freeze first.
//
// Beyond the core types the package provides width computation and a
// validating JSON wire format (graph.json) shared by the daggen, ftsched and
// ftserved tools.
package dag
