package sched

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// RunOptions is the one option set of every scheduler: each registered
// scheduling function reads it directly, and no scheduler has options of its
// own. Fields a scheduler does not support are rejected by
// Registration.Check (and by Run) instead of being silently ignored.
type RunOptions struct {
	// Epsilon is ε, the number of fail-stop processor failures to tolerate;
	// fault-tolerant schedulers replicate every task on ε+1 distinct
	// processors. Schedulers registered as not fault-tolerant (HEFT) require
	// Epsilon == 0.
	Epsilon int
	// Rng breaks priority ties randomly, as the paper specifies. Nil makes
	// tie-breaking deterministic (by task ID).
	Rng *rand.Rand
	// BottomLevels, when non-nil, supplies the precomputed static bottom
	// levels bℓ(t) (as returned by AvgBottomLevels) instead of recomputing
	// them. Every registered scheduler derives its task priorities from the
	// same bottom levels, so callers scheduling one instance repeatedly —
	// the campaign engine, the tuner, the mission evaluator — compute them
	// once and share the slice (read-only to the schedulers).
	BottomLevels []float64
	// Policy selects a scheduler-specific placement policy by name (e.g.
	// MC-FTSA's "greedy" or "bottleneck" matching, HEFT's "noinsertion"
	// ablation). Empty selects the scheduler's default; any other value must
	// be listed in the scheduler's registration.
	Policy string
	// Latency, when positive, requests the deadline-checked bi-criteria
	// variant (Section 4.3): scheduling fails as soon as some task cannot
	// meet its derived deadline. Only valid for schedulers registered with
	// Deadlines support, and never NaN or infinite.
	Latency float64
}

// Scheduler is the uniform interface every scheduling algorithm in the
// registry implements. Name returns the canonical lower-case registry name;
// Schedule maps the instance onto the platform under the given options.
type Scheduler interface {
	Name() string
	Schedule(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions) (*Schedule, error)
}

// Func returns the Scheduler named name that runs fn, the form in which
// every built-in registers its scheduling function.
func Func(name string, fn func(*dag.Graph, *platform.Platform, *platform.CostModel, RunOptions) (*Schedule, error)) Scheduler {
	return funcScheduler{name, fn}
}

type funcScheduler struct {
	name string
	fn   func(*dag.Graph, *platform.Platform, *platform.CostModel, RunOptions) (*Schedule, error)
}

func (f funcScheduler) Name() string { return f.name }

func (f funcScheduler) Schedule(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions) (*Schedule, error) {
	return f.fn(g, p, cm, opt)
}

// Registration describes one registry entry: the scheduler plus the
// capability surface dispatch sites need for validation, help output and
// documentation.
type Registration struct {
	// Scheduler is the implementation; its Name() is the canonical name.
	Scheduler Scheduler
	// Aliases are alternative names accepted by LookupInfo (matched
	// case-insensitively, like the canonical name). The paper's display
	// spellings ("MC-FTSA") are registered here.
	Aliases []string
	// Description is the one-line summary used by -list-schedulers and the
	// generated documentation table.
	Description string
	// FaultTolerant reports whether the scheduler replicates tasks; when
	// false, RunOptions.Epsilon must be 0.
	FaultTolerant bool
	// Policies lists the accepted non-empty RunOptions.Policy values.
	Policies []string
	// DefaultPolicy, when non-empty, is the policy an empty
	// RunOptions.Policy resolves to (it must appear in Policies). Cache-key
	// canonicalization uses it so an omitted policy and an explicit default
	// share one entry.
	DefaultPolicy string
	// IgnoresRng reports that the scheduler never consumes RunOptions.Rng
	// (HEFT is deterministic); cache-key canonicalization zeroes the seed
	// for such schedulers so equivalent requests share one entry.
	IgnoresRng bool
	// Deadlines reports whether the scheduler supports the deadline-checked
	// variant selected by RunOptions.Latency.
	Deadlines bool
}

// Name returns the canonical scheduler name.
func (r Registration) Name() string { return r.Scheduler.Name() }

// registry is the process-global scheduler registry. Schedulers register
// themselves from init functions of their packages; the ftsched/internal/
// schedulers package links every built-in into a binary with one blank
// import. Lookups after init never write, so an RWMutex keeps concurrent
// dispatch (the serving layer resolves per request) contention-free.
var registry struct {
	sync.RWMutex
	order   []string                // canonical names in registration order
	entries map[string]Registration // canonical name -> entry
	byName  map[string]string       // lower-case name/alias -> canonical name
}

// ErrUnknownScheduler is wrapped by lookup failures; the error text
// enumerates the registered names so callers (CLI, HTTP 400s) never show a
// stale hard-coded list.
var ErrUnknownScheduler = errors.New("sched: unknown scheduler")

// Register adds a scheduler to the registry. It panics on a nil scheduler,
// an empty or non-canonical (not lower-case) name, or any name/alias
// collision — registration happens at init time, where a panic is a build
// error, not a runtime hazard.
func Register(r Registration) {
	if r.Scheduler == nil {
		panic("sched: Register called with nil scheduler")
	}
	name := r.Scheduler.Name()
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("sched: scheduler name %q must be non-empty lower-case", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.entries == nil {
		registry.entries = make(map[string]Registration)
		registry.byName = make(map[string]string)
	}
	// Validate every key before mutating anything, so a collision panic
	// cannot leave the process-global registry half-populated (tests that
	// recover from Register panics would otherwise see phantom entries).
	keys := make([]string, 0, 1+len(r.Aliases))
	keys = append(keys, name)
	for _, a := range r.Aliases {
		keys = append(keys, strings.ToLower(a))
	}
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if prev, ok := registry.byName[key]; ok {
			panic(fmt.Sprintf("sched: name or alias %q of %q already registered by %q", key, name, prev))
		}
		if seen[key] {
			panic(fmt.Sprintf("sched: scheduler %q repeats name/alias %q", name, key))
		}
		seen[key] = true
	}
	registry.entries[name] = r
	registry.order = append(registry.order, name)
	for _, key := range keys {
		registry.byName[key] = name
	}
}

// LookupInfo resolves the full registration of a scheduler by canonical name
// or alias, matched case-insensitively.
func LookupInfo(name string) (Registration, bool) {
	registry.RLock()
	defer registry.RUnlock()
	canonical, ok := registry.byName[strings.ToLower(name)]
	if !ok {
		return Registration{}, false
	}
	return registry.entries[canonical], true
}

// Names returns the canonical scheduler names in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// Registrations returns every registry entry in registration order.
func Registrations() []Registration {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Registration, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.entries[name])
	}
	return out
}

// AliasesOf returns the registered aliases of a scheduler (resolved like
// LookupInfo), sorted for stable output.
func AliasesOf(name string) []string {
	r, ok := LookupInfo(name)
	if !ok {
		return nil
	}
	out := append([]string(nil), r.Aliases...)
	sort.Strings(out)
	return out
}

// UnknownSchedulerError returns the uniform lookup-failure error, whose text
// enumerates the registered scheduler names.
func UnknownSchedulerError(name string) error {
	return fmt.Errorf("%w %q (registered: %s)", ErrUnknownScheduler, name, strings.Join(Names(), ", "))
}

// SweepPolicies returns the policy values a parameter sweep over this
// scheduler should cover, derived from the capability surface: every
// registered policy, plus the unnamed default behavior (empty string) when no
// DefaultPolicy names it. A scheduler with a DefaultPolicy resolves "" to
// that policy (see canonicalization in the serving layer), so listing ""
// there would duplicate a grid point; a scheduler without one ("ftbar",
// "heft") has a real unnamed default the sweep must not skip.
func (r Registration) SweepPolicies() []string {
	if len(r.Policies) == 0 {
		return []string{""}
	}
	if r.DefaultPolicy != "" {
		return append([]string(nil), r.Policies...)
	}
	return append([]string{""}, r.Policies...)
}

// Check validates opt against the scheduler's registered capabilities,
// producing the uniform errors every dispatch site (CLI, HTTP, campaign
// engine) reports. It does not validate instance-dependent constraints
// (ε+1 <= m); the schedulers themselves do.
func (r Registration) Check(opt RunOptions) error {
	name := r.Name()
	if opt.Epsilon < 0 {
		return fmt.Errorf("sched: epsilon must be >= 0, got %d", opt.Epsilon)
	}
	if !r.FaultTolerant && opt.Epsilon != 0 {
		return fmt.Errorf("sched: scheduler %q is not fault-tolerant; epsilon must be 0, got %d", name, opt.Epsilon)
	}
	if opt.Policy != "" {
		ok := false
		for _, p := range r.Policies {
			if p == opt.Policy {
				ok = true
				break
			}
		}
		if !ok {
			if len(r.Policies) == 0 {
				return fmt.Errorf("sched: scheduler %q accepts no policy, got %q", name, opt.Policy)
			}
			return fmt.Errorf("sched: unknown policy %q for scheduler %q (want %s)",
				opt.Policy, name, strings.Join(r.Policies, " or "))
		}
	}
	if opt.Latency != 0 && !r.Deadlines {
		return fmt.Errorf("sched: scheduler %q has no deadline-checked variant (-latency)", name)
	}
	if opt.Latency < 0 || math.IsNaN(opt.Latency) || math.IsInf(opt.Latency, 0) {
		return fmt.Errorf("sched: latency must be finite and >= 0, got %g", opt.Latency)
	}
	return nil
}

// Run resolves name in the registry, validates opt against the scheduler's
// capabilities, and runs it. It is the single dispatch point the serving
// layer, the campaign engine and the CLIs share.
func Run(name string, g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions) (*Schedule, error) {
	r, ok := LookupInfo(name)
	if !ok {
		return nil, UnknownSchedulerError(name)
	}
	if err := r.Check(opt); err != nil {
		return nil, err
	}
	return r.Scheduler.Schedule(g, p, cm, opt)
}

// ErrLatencyUnachievable is returned by MaxToleratedFailures when even the
// ε=0 schedule exceeds the latency budget.
var ErrLatencyUnachievable = errors.New("sched: latency budget unachievable even without replication")

// MaxToleratedFailures implements the first bi-criteria driver of Section
// 4.3: given a fixed latency budget, find the maximum number of processor
// failures ε the named scheduler tolerates while the schedule's guaranteed
// latency (upper bound M, equation 4) stays within the budget. As the paper
// suggests, a binary search on ε replaces the naive ε = 1, 2, 3, ...
// iteration; every probe is Run with opt, its Epsilon set to the probed ε.
// It returns the best ε and its schedule; for a scheduler that is not
// fault-tolerant the search is ε=0 alone. Only an upper bound above the
// budget shrinks the search: a probe that fails returns its error as is.
//
// Latency is not perfectly monotone in ε for a greedy heuristic, so the
// binary search (like the paper's) returns a maximal feasible ε under the
// monotonicity assumption, not a certified global maximum.
func MaxToleratedFailures(name string, g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions, budget float64) (int, *Schedule, error) {
	if !(budget > 0) || math.IsInf(budget, 1) {
		return 0, nil, fmt.Errorf("sched: latency budget must be finite and positive, got %g", budget)
	}
	hi := p.NumProcs() - 1
	if r, ok := LookupInfo(name); ok && !r.FaultTolerant {
		hi = 0 // a scheduler that does not replicate tolerates no failure
	}
	var best *Schedule
	for lo := 0; lo <= hi; {
		opt.Epsilon = (lo + hi) / 2
		s, err := Run(name, g, p, cm, opt)
		if err != nil {
			return 0, nil, err
		}
		if s.UpperBound() <= budget {
			best, lo = s, opt.Epsilon+1
		} else {
			hi = opt.Epsilon - 1
		}
	}
	if best == nil {
		return 0, nil, ErrLatencyUnachievable
	}
	return best.Epsilon, best, nil
}

// WriteSchedulerList writes the registry one scheduler per line — canonical
// name, aliases, accepted policies — the shared implementation behind the
// CLIs' -list-schedulers flags.
func WriteSchedulerList(w io.Writer) {
	for _, r := range Registrations() {
		line := r.Name()
		if aliases := AliasesOf(r.Name()); len(aliases) > 0 {
			line += " (aliases: " + strings.Join(aliases, ", ") + ")"
		}
		if len(r.Policies) > 0 {
			line += " [policies: " + strings.Join(r.Policies, ", ") + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// RegistryTable renders the registry as a GitHub-flavored markdown table.
// docs/API.md embeds it between generated-table markers, and a test asserts
// the embedded copy matches, so the documented scheduler list cannot drift
// from the code.
func RegistryTable() string {
	var b strings.Builder
	b.WriteString("| Scheduler | Aliases | Fault-tolerant | Policies | Description |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range Registrations() {
		ft := "no (ε must be 0)"
		if r.FaultTolerant {
			ft = "yes"
		}
		aliases := strings.Join(AliasesOf(r.Name()), ", ")
		if aliases == "" {
			aliases = "—"
		}
		policies := strings.Join(r.Policies, ", ")
		if policies == "" {
			policies = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", r.Name(), aliases, ft, policies, r.Description)
	}
	return b.String()
}
