// Package coord is the coordinator half of sharded ftserved: an http.Handler
// that fronts N worker shards (in-process service.Servers or remote workers
// behind Proxy) and routes every request by its canonical 128-bit fingerprint
// using rendezvous hashing.
//
// The routing invariant is what keeps the sharded deployment byte-identical
// to a single server: a fingerprint always lands on the same shard, so each
// shard's LRU owns a disjoint, stable keyspace and a repeat request finds its
// predecessor's cache entry no matter how many requests went elsewhere in
// between. Malformed and over-limit bodies are refused at the door with the
// bytes a standalone server with the same service.Config answers — a request
// that cannot be served never reaches a shard.
//
// A request is decoded at most once per deployment: the door's decode is
// handed to an in-process shard as a service.Decoded (a Proxy shard gets the
// bytes and decodes them itself — a remote server must not trust a forwarded
// fingerprint), and a byte-identical repeat of a body that came back as a
// hit is routed from the door's body-digest index without a door decode.
//
// POST /schedule/batch, the one request the shards decode again, is split
// per item fingerprint into re-encoded per-shard sub-batches, fanned out
// concurrently, and the per-item results are merged back in request order; GET /stats aggregates the per-shard counters into a
// merged view that preserves the conservation invariant
// (requests == cache_hits + cache_misses + client_errors + internal_errors).
package coord
