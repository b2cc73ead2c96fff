package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
)

// Instance is the problem instance every request body carries: the task
// DAG, the platform's delay matrix and the task × processor cost matrix, in
// the exact wire shapes daggen writes to graph.json, platform.json and
// costs.json, so an on-disk instance can be pasted into a request unchanged.
// Every request type embeds it, and encoding/json flattens the embedding:
// the three members sit at the top level of the body.
type Instance struct {
	// Graph is the weighted task DAG (validated on decode: dense task IDs,
	// non-negative volumes, acyclic).
	Graph *dag.Graph `json:"graph"`
	// Platform is the delay matrix (validated: square, zero diagonal).
	Platform *platform.Platform `json:"platform"`
	// Costs is the task × processor execution-cost matrix.
	Costs *platform.CostModel `json:"costs"`

	// memo is the pooled storage the three members point into, and what it
	// remembers between decodes (decodeInto).
	memo *instanceMemo
}

// validate reports a missing member and cross-checks the dimensions; the
// graph, platform and cost-model decoders have already validated their own
// invariants.
func (in *Instance) validate() error {
	if in.Graph == nil {
		return fmt.Errorf("missing field %q", "graph")
	}
	if in.Platform == nil {
		return fmt.Errorf("missing field %q", "platform")
	}
	if in.Costs == nil {
		return fmt.Errorf("missing field %q", "costs")
	}
	if v := in.Graph.NumTasks(); in.Costs.NumTasks() != v {
		return fmt.Errorf("costs cover %d tasks, graph has %d", in.Costs.NumTasks(), v)
	}
	if m := in.Platform.NumProcs(); in.Costs.NumProcs() != m {
		return fmt.Errorf("costs cover %d processors, platform has %d", in.Costs.NumProcs(), m)
	}
	return nil
}

// checkScenario refuses a failure-scenario spec that names no generator or
// whose generator the platform cannot host.
func (in *Instance) checkScenario(spec sim.ScenarioSpec) error {
	gen, err := spec.Generator()
	if err == nil {
		err = gen.Check(in.Platform.NumProcs())
	}
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// ScheduleRequest is the body of POST /schedule: an instance and the
// scheduling parameters.
type ScheduleRequest struct {
	Instance
	// Scheduler selects the heuristic by scheduler-registry name or alias,
	// matched case-insensitively: "ftsa", "mcftsa" (alias "mc-ftsa"),
	// "ftsa-ins", "ftbar" or "heft". Unknown names are rejected with a 400
	// that enumerates the registered schedulers.
	Scheduler string `json:"scheduler"`
	// Epsilon is ε, the number of tolerated fail-stop failures; every task is
	// replicated on ε+1 distinct processors. Must be 0 for schedulers
	// registered as not fault-tolerant ("heft").
	Epsilon int `json:"epsilon"`
	// Policy selects a scheduler-specific placement policy: "greedy"
	// (default) or "bottleneck" for mcftsa, "noinsertion" for heft,
	// "noduplication" for ftbar. Values a scheduler does not register are
	// rejected.
	Policy string `json:"policy,omitempty"`
	// Seed, when non-zero, seeds random priority tie-breaking as in the
	// paper. Zero (the default) breaks ties deterministically by task ID.
	// The seed is part of the cache fingerprint, so equal requests still
	// produce byte-identical responses.
	Seed int64 `json:"seed,omitempty"`
	// Lambda, when positive, is the exponential failure rate of each
	// processor; the response then carries a survival-probability lower
	// bound over the schedule's guaranteed mission time.
	Lambda float64 `json:"lambda,omitempty"`
	// IncludeGantt adds the per-processor replica timeline to the response.
	IncludeGantt bool `json:"include_gantt,omitempty"`
	// IncludeSchedule adds the full schedule (the ftsched -save wire format)
	// to the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// ScheduleResponse is the body of a successful POST /schedule.
type ScheduleResponse struct {
	// Scheduler is the algorithm's display name (e.g. "MC-FTSA").
	Scheduler string `json:"scheduler"`
	Epsilon   int    `json:"epsilon"`
	Tasks     int    `json:"tasks"`
	Procs     int    `json:"procs"`
	// Pattern is the communication pattern, "all" or "matched".
	Pattern string `json:"pattern"`
	// LowerBound is the latency with no failure (equation 2); UpperBound the
	// latency guaranteed under any ε failures (equation 4).
	LowerBound float64 `json:"lower_bound"`
	UpperBound float64 `json:"upper_bound"`
	// Messages counts inter-processor messages.
	Messages int `json:"messages"`
	// Metrics carries the paper's cost measures.
	Metrics ResponseMetrics `json:"metrics"`
	// Reliability is present when the request set a positive lambda.
	Reliability *ResponseReliability `json:"reliability,omitempty"`
	// Schedule is the full schedule in the ftsched -save wire format,
	// present when include_schedule was set.
	Schedule json.RawMessage `json:"schedule,omitempty"`
	// Gantt is the per-processor timeline, present when include_gantt was
	// set.
	Gantt []ProcTimeline `json:"gantt,omitempty"`
}

// ResponseMetrics mirrors sched.Metrics on the wire.
type ResponseMetrics struct {
	TotalWork         float64 `json:"total_work"`
	Replicas          int     `json:"replicas"`
	ReplicationFactor float64 `json:"replication_factor"`
	CommVolume        float64 `json:"comm_volume"`
	Horizon           float64 `json:"horizon"`
	MeanUtilization   float64 `json:"mean_utilization"`
	MinUtilization    float64 `json:"min_utilization"`
	MaxUtilization    float64 `json:"max_utilization"`
}

// ResponseReliability reports the exponential-failure survival bound.
type ResponseReliability struct {
	// Lambda echoes the request's failure rate.
	Lambda float64 `json:"lambda"`
	// Mission is the window the bound covers: the schedule's upper bound.
	Mission float64 `json:"mission"`
	// SurvivalLowerBound is P(at most ε of m processors fail during the
	// mission) — a lower bound on the success probability.
	SurvivalLowerBound float64 `json:"survival_lower_bound"`
}

// ProcTimeline is one processor's row of the Gantt chart.
type ProcTimeline struct {
	Proc  platform.ProcID `json:"proc"`
	Spans []GanttSpan     `json:"spans"`
}

// GanttSpan is one replica's execution window on a processor. Min times
// assume no failure; Max times are the pessimistic (equation 3) window.
type GanttSpan struct {
	Task      dag.TaskID `json:"task"`
	Copy      int        `json:"copy"`
	StartMin  float64    `json:"start_min"`
	FinishMin float64    `json:"finish_min"`
	StartMax  float64    `json:"start_max"`
	FinishMax float64    `json:"finish_max"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteError writes the uniform JSON error body with the given status. It
// counts nothing: a Server's own handlers count their errors first, and the
// uncounted reads (mission GETs, like /stats and /healthz) call it directly.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct with a string cannot fail; ignore the error.
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// Encode serializes v deterministically — compact JSON in struct field
// order, no HTML escaping, a trailing newline — the canonical form of every
// response body the cache stores and the door merges.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeScheduleRequest reads and validates one request body (decodeBody)
// into pooled instance storage (decodeInto), which ReleaseScheduleRequest
// may return. Unknown top-level fields are rejected so typos ("epsilom")
// fail loudly instead of silently scheduling with defaults. The returned
// error is safe to echo to the client.
func DecodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	return readInto(new(ScheduleRequest), r)
}

// Validate cross-checks the decoded request.
func (req *ScheduleRequest) Validate() error {
	if err := req.validate(); err != nil {
		return err
	}
	if req.Scheduler == "" {
		return fmt.Errorf("missing field %q (registered schedulers: %s)",
			"scheduler", strings.Join(sched.Names(), ", "))
	}
	info, ok := sched.LookupInfo(req.Scheduler)
	if !ok {
		return sched.UnknownSchedulerError(req.Scheduler)
	}
	// Capability checks (fault tolerance, policy surface) are the registry's;
	// the service only adds the instance-dependent constraints.
	if err := info.Check(sched.RunOptions{Epsilon: req.Epsilon, Policy: req.Policy}); err != nil {
		return err
	}
	if m := req.Platform.NumProcs(); req.Epsilon+1 > m {
		return fmt.Errorf("epsilon %d needs %d distinct processors per task, platform has %d",
			req.Epsilon, req.Epsilon+1, m)
	}
	if req.Lambda < 0 {
		return fmt.Errorf("lambda must be >= 0, got %g", req.Lambda)
	}
	return nil
}

// rejectScheduleOnlyFields rejects the request fields only /schedule serves
// (Gantt chart, embedded schedule, reliability bound). Endpoints that embed a
// ScheduleRequest but render none of those sections call this from their
// Validate so every endpoint reports the unsupported field the same way
// instead of silently dropping it.
func (req *ScheduleRequest) rejectScheduleOnlyFields(endpoint string) error {
	if req.IncludeGantt {
		return fmt.Errorf("include_gantt is not supported by %s", endpoint)
	}
	if req.IncludeSchedule {
		return fmt.Errorf("include_schedule is not supported by %s", endpoint)
	}
	if req.Lambda != 0 {
		return fmt.Errorf("lambda is not supported by %s; pick a scenario kind (e.g. %q) instead", endpoint, "exp")
	}
	return nil
}

// canonicalScheduler resolves the request's scheduler (name or alias, any
// case) to its canonical registry name, falling back to plain lower-casing
// for requests that never passed validation.
func (req *ScheduleRequest) canonicalScheduler() string {
	if info, ok := sched.LookupInfo(req.Scheduler); ok {
		return info.Name()
	}
	return strings.ToLower(req.Scheduler)
}

// describe renders the one-line request summary the verbose log prints.
func (req *ScheduleRequest) describe() string {
	return fmt.Sprintf("%s eps=%d tasks=%d procs=%d",
		req.canonicalScheduler(), req.Epsilon, req.Graph.NumTasks(), req.Platform.NumProcs())
}

// canonicalPolicySeed folds fields whose surface spelling doesn't change the
// response, so equivalent requests share one cache entry. The registry
// declares each scheduler's defaults: an omitted policy means the
// scheduler's default ("greedy" for MC-FTSA), and a scheduler that never
// consumes the tie-break RNG (HEFT) hashes a zero seed.
func (req *ScheduleRequest) canonicalPolicySeed() (policy string, seed int64) {
	policy, seed = req.Policy, req.Seed
	if info, ok := sched.LookupInfo(req.Scheduler); ok {
		if policy == "" {
			policy = info.DefaultPolicy
		}
		if info.IgnoresRng {
			seed = 0
		}
	}
	return policy, seed
}
