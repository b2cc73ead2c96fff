// Package load is the closed-loop capacity-benchmarking instrument for the
// ftserved serving tier: a load generator that drives a live or in-process
// server with zipf-skewed traffic over a generated instance corpus and
// reports coordinated-omission-safe latency/throughput numbers comparable
// across PRs.
//
// The pipeline is: a Corpus of scheduling instances (built through
// expt.BuildInstance, pre-marshaled to the wire shapes the service decodes),
// a Profile mixing /schedule, /evaluate and /tune traffic with per-endpoint
// parameter distributions, a Zipf sampler skewing instance popularity (so
// the fingerprint cache's hit rate under realistic skew becomes measurable),
// and a Runner with three modes:
//
//   - closed: N workers issue requests back to back with optional think
//     time — the classic closed-loop saturation probe.
//   - open: requests arrive at a fixed rate on an intended-send schedule;
//     latency is measured from the *intended* send time, so a stalled
//     server cannot hide queueing delay behind coordinated omission.
//   - search: binary search for the maximum open-loop arrival rate whose
//     corrected p99 stays within an SLO — the capacity headline.
//
// Every request is synthesized from its global index alone (seeded zipf
// draw, seeded parameter draws), so the request multiset is independent of
// worker count and interleaving. Latencies land in log-bucketed
// stats.Histogram instruments whose merge is exact, which together with a
// virtual clock gives the deterministic mode its defining property: a fixed
// seed produces a byte-identical JSON Report at any worker count, making
// the whole pipeline unit-testable and letting CI gate a report by
// comparing its bytes with a checked-in baseline.
//
// Both the closed and the open loop run on one of two engines, picked by
// Options.Deterministic: runWall measures on the wall clock with Workers
// goroutines, runVirtual simulates the senders on a virtual clock in
// stream order.
package load
