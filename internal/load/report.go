package load

import (
	"bytes"
	"encoding/json"

	"ftsched/internal/stats"
)

// EndpointReport is one endpoint's share of a run.
type EndpointReport struct {
	Requests uint64 `json:"requests"`
	// OK counts 2xx responses; Rejected counts 429s (also included in
	// neither OK nor ClientErrors, mirroring the server's own split);
	// ClientErrors counts other 4xx, ServerErrors 5xx, TransportErrors
	// requests that never produced a status.
	OK              uint64 `json:"ok"`
	Rejected        uint64 `json:"rejected"`
	ClientErrors    uint64 `json:"client_errors"`
	ServerErrors    uint64 `json:"server_errors"`
	TransportErrors uint64 `json:"transport_errors"`
	// CacheHits and CacheMisses count by the X-Ftserved-Cache header;
	// HitRate is hits/(hits+misses), 0 before any served response.
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// Latency is coordinated-omission-corrected in open-loop mode: each
	// sample measures from the request's intended send time, so sender
	// backlog shows up as latency instead of vanishing. In closed-loop
	// mode intended and actual send coincide and Latency equals Service.
	Latency stats.Summary `json:"latency"`
	// Service is the uncorrected service-time view (send to completion) —
	// the number a coordinated-omission-blind instrument would report.
	// Present only in open-loop runs, where the two diverge.
	Service *stats.Summary `json:"service,omitempty"`
}

// CapacityIteration is one probe of the capacity binary search.
type CapacityIteration struct {
	RatePerSec float64 `json:"rate_per_sec"`
	P99Ms      float64 `json:"p99_ms"`
	ErrorRate  float64 `json:"error_rate"`
	OK         bool    `json:"ok"`
}

// CapacityReport is the result of -mode search.
type CapacityReport struct {
	// SLOP99Ms is the latency objective the search held p99 to.
	SLOP99Ms float64 `json:"slo_p99_ms"`
	// ErrorBudget is the tolerated fraction of rejected/errored requests.
	ErrorBudget float64 `json:"error_budget"`
	// MaxRatePerSec is the highest probed arrival rate that met the SLO
	// (0 when even the lowest probe failed).
	MaxRatePerSec float64 `json:"max_rate_per_sec"`
	// Iterations records every probe in search order.
	Iterations []CapacityIteration `json:"iterations"`
}

// Report is the machine-readable result of a load run. Everything a rerun
// needs is echoed: seed, zipf exponent, corpus spec and full profile.
// Deterministic runs exclude wall-clock state entirely, so equal
// configurations marshal byte-identically — the property CI's determinism
// gate checks with cmp.
type Report struct {
	// Mode is "closed", "open" or "search".
	Mode string `json:"mode"`
	// Deterministic marks virtual-clock runs: latencies come from the
	// seeded synthetic cost model and Elapsed/Throughput are
	// concurrency-normalized (see ElapsedSeconds), so reports are
	// byte-identical across runs — and in closed-loop mode across worker
	// counts too (the open-loop sender cap is part of the model).
	Deterministic bool       `json:"deterministic"`
	Seed          int64      `json:"seed"`
	ZipfS         float64    `json:"zipf_s"`
	Corpus        CorpusSpec `json:"corpus"`
	Profile       Profile    `json:"profile"`
	// RatePerSec echoes the open-loop arrival rate (0 in closed mode).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// ThinkMs echoes the per-request think time.
	ThinkMs float64 `json:"think_ms,omitempty"`
	// Warmup echoes the unrecorded cache-priming request count. It shapes
	// the measured hit pattern, so it is part of comparability.
	Warmup int `json:"warmup,omitempty"`
	// Shards echoes the worker-shard count behind the target (0: a plain
	// unsharded server). A sharded deterministic closed-loop run reports the
	// same numbers as an unsharded one — that is the sharding guarantee — so
	// this echo is the only field in which the two reports differ.
	Shards int `json:"shards,omitempty"`
	// Requests is the total request count across endpoints.
	Requests uint64 `json:"requests"`
	// ElapsedSeconds: wall-clock run length in real mode. In deterministic
	// closed-loop mode it is total occupied worker-seconds (virtual), and
	// in deterministic open-loop mode the virtual completion time of the
	// last request — both independent of physical execution speed.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Throughput is Requests/ElapsedSeconds: requests per second in real
	// and open-loop modes, requests per occupied-worker-second in
	// deterministic closed-loop mode.
	Throughput float64 `json:"throughput"`
	// Total aggregates every endpoint; Endpoints splits by endpoint name
	// ("schedule", "evaluate", "tune" — only endpoints with traffic
	// appear).
	Total     EndpointReport             `json:"total"`
	Endpoints map[string]*EndpointReport `json:"endpoints"`
	// Capacity is present in search mode.
	Capacity *CapacityReport `json:"capacity,omitempty"`
}

// Marshal serializes the report deterministically: compact JSON, struct
// field order, map keys sorted (encoding/json's documented map behavior),
// no HTML escaping, trailing newline — the same discipline as the service's
// cached responses.
func (r *Report) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
