// Package service is the serving layer of ftsched: a long-running,
// concurrent, fault-tolerant scheduling service wrapping the paper's
// heuristics (FTSA, MC-FTSA, FTBAR and the HEFT reference) behind an HTTP
// JSON API.
//
// Where cmd/ftsched schedules one instance per process and the campaign
// engine sweeps parameter grids offline, this package serves sustained
// request traffic:
//
//   - POST /schedule accepts a problem instance (DAG + platform + cost
//     matrix, the same wire shapes daggen writes to disk) plus scheduler
//     parameters, and returns the schedule, its latency bounds, the paper's
//     metrics (replication overhead, communication volume, utilization),
//     an optional reliability estimate and an optional Gantt timeline.
//   - POST /evaluate accepts the same scheduling problem plus a
//     fault-injection batch (trials, scenario generator spec, evaluation
//     seed) and returns the schedule's behavior under sampled failures:
//     success rate with a 95% Wilson interval, latency mean/p50/p99 and a
//     degradation-vs-failure-count histogram, computed by sim.Evaluate with
//     deterministic per-trial seeding — the response is as cacheable as a
//     schedule.
//   - POST /tune accepts a problem instance plus a scoring scenario, a
//     trial budget and a reliability target, derives the candidate grid
//     from the scheduler registry's capability surface, and runs the
//     Pareto auto-tuner (internal/tune): the response is the frontier of
//     (expected latency, success probability) with a recommended
//     operating point — byte-deterministic, so cached like the others
//     under its own fingerprint domain, guarded by -max-candidates.
//   - GET /healthz is a liveness probe.
//   - GET /stats reports cache hit rate, per-endpoint and per-scheduler
//     counters, queue depth, and latency since start per endpoint × cache
//     status (Latency).
//
// Five mechanisms make the service production-shaped:
//
//   - A bounded worker pool (Pool): one scheduling goroutine per core by
//     default, with a bounded queue in front. When the queue is full the
//     handler sheds load with 429 instead of letting goroutines and memory
//     grow without bound — backpressure, not collapse.
//   - A sharded LRU response cache (Cache) keyed by a canonical FNV-1a
//     fingerprint of the entire request (DAG structure and volumes, cost
//     matrix, delay matrix, scheduler, ε, matching policy, seed, response
//     options). Scheduling is deterministic given those inputs, so a cache
//     hit returns the exact bytes a fresh run would produce; repeated
//     requests — the common case under heavy traffic — skip scheduling
//     entirely.
//   - A body-digest front index (NewFrontIndex, the same LRU) in front of
//     that cache. Even single-pass, decoding a paper-sized body costs as
//     much as an FTSA solve, and a cache hit would pay it just to find its
//     key; so the one handler of every POST endpoint (Endpoint) reads the
//     body once into a pooled buffer, takes a 128-bit process-keyed digest
//     of the raw bytes (BodyDigest) and, for /schedule, /evaluate and /tune,
//     when the index maps it to a fingerprint whose entry is still cached,
//     replays the hit — same bytes, header and counters — without decoding.
//     A body is admitted only after it decoded, passed every guard and was
//     served as a hit, so every alias points at a canonical entry and
//     traffic that never repeats stores nothing. The coordinator's door
//     keeps the same index for routing and hands the requests it does
//     decode to in-process shards through Server.ServeDecoded, so a sharded
//     request is decoded at most once (a batch, split by item, is decoded
//     again by the shards).
//   - One request decoder (decodeBody) behind all five POST endpoints and
//     the door: buffer → digest → front index → decodeBody → fingerprint.
//     It walks the buffered body once; the instance members (graph,
//     platform, costs — 99.8 % of the bytes) are parsed by internal/wire's
//     scanner straight into the graph arena and the matrix blocks, the
//     remaining members are spliced into a residual object that
//     encoding/json decodes into the endpoint's struct with unknown fields
//     refused, and nothing but whitespace may follow.
//   - Pooled instance storage that remembers its instance. Every endpoint's
//     body decodes into recycled storage (decodeInto) that keeps a copy of
//     the bytes each instance member was decoded from and the fingerprint
//     state the instance hashed to, so a body repeating an instance under
//     other parameters or at another endpoint — the paper's evaluation
//     sends each graph at several ε, to several schedulers — compares those
//     bytes instead of decoding them and resumes the fingerprint. For the
//     repeat to find that storage, the pools are a fixed table keyed on a
//     process-keyed hash of the body's first 256 bytes (the opening of the
//     graph); the key only chooses where to look, the byte comparison
//     decides, and only instances seen shortly before are given storage of
//     their own. A mission keeps its storage (requestpool.go).
//
// Responses are pure functions of the request: tie-breaking uses either the
// deterministic task-ID order or the request's explicit seed, and the seed
// participates in the fingerprint. That purity is what makes byte-exact
// caching sound.
//
// # Threat model of the cache
//
// The canonical fingerprint — cache key, routing input, mission id — is an
// unkeyed 128-bit FNV-1a, and a hit is served unverified: the bytes under the
// key are the response. FNV-1a does not resist a deliberate collision search,
// so the service assumes clients that do not attack each other; mutually
// distrusting tenants must not share a server or its cache. The front index
// does not widen that: its digest is keyed with seeds drawn per process and
// never exposed, it is never a cache key, a route or an id, and an entry is
// only ever created for a body that was itself decoded and validated, and
// only ever points at the canonical entry that body's own fingerprint names.
package service
