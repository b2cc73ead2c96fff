package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"

	"ftsched/internal/trace"
)

// TraceSpec carries a recorded failure trace through a ScenarioSpec — the
// "trace" scenario kind's parameters. The events are the JSONL format of
// internal/trace; Scale stretches or compresses the recorded timeline onto
// the schedule's time units; Resample switches from verbatim replay to
// bootstrap resampling across Monte-Carlo trials.
type TraceSpec struct {
	// Events is the recorded failure log, in file order.
	Events []trace.Event `json:"events"`
	// Scale multiplies every crash time; 0 means 1 (unscaled), so the
	// field can be omitted on the wire.
	Scale float64 `json:"scale,omitempty"`
	// Resample, when true, bootstrap-resamples whole incidents (events
	// sharing a correlation group, singletons otherwise) with replacement
	// per trial — len(incidents) draws, so the expected failure mass
	// matches the trace. When false every trial replays the trace
	// verbatim, making the evaluation a deterministic regression check.
	Resample bool `json:"resample,omitempty"`
}

// scale returns the effective time multiplier.
func (ts TraceSpec) scale() float64 {
	if ts.Scale == 0 {
		return 1
	}
	return ts.Scale
}

// check validates the platform-independent parts of the spec.
func (ts TraceSpec) check() error {
	if err := trace.Check(ts.Events); err != nil {
		return fmt.Errorf("sim: %v", err)
	}
	if math.IsNaN(ts.Scale) || math.IsInf(ts.Scale, 0) || ts.Scale < 0 {
		return fmt.Errorf("sim: trace scale must be a positive finite number, got %g", ts.Scale)
	}
	return nil
}

// String renders the canonical display form: a content digest of the events
// plus the scale and resample switches. Distinct traces must render
// distinctly — the response cache keys on this string — so it hashes every
// event; it is not re-parseable (the file the events came from is gone).
func (ts TraceSpec) String() string {
	h := fnv.New64a()
	var buf [32]byte
	for _, ev := range ts.Events {
		h.Write(fmt.Appendf(buf[:0], "%d|%s|%s\n", ev.Proc, fg(ev.Time), ev.Group))
	}
	s := fmt.Sprintf("trace:%dev#%016x", len(ts.Events), h.Sum64())
	if ts.scale() != 1 {
		s += ":x" + fg(ts.Scale)
	}
	if ts.Resample {
		s += ":resample"
	}
	return s
}

// TraceGen replays a recorded failure trace as a ScenarioGenerator —
// ROADMAP item 5's trace-driven failure model. Without resampling every
// trial sees the identical scenario (the trace itself, time-scaled); with
// resampling each trial draws incidents from the trace with replacement, so
// the Monte-Carlo distribution is the empirical incident distribution.
// Duplicate crashes of one processor keep the earliest time.
type TraceGen struct {
	spec      TraceSpec
	incidents [][]trace.Event // precomputed so the trial loop allocates nothing
	maxProc   int
}

// NewTraceGen validates the spec and precomputes the incident grouping.
func NewTraceGen(ts TraceSpec) (*TraceGen, error) {
	if err := ts.check(); err != nil {
		return nil, err
	}
	return &TraceGen{
		spec:      ts,
		incidents: trace.Incidents(ts.Events),
		maxProc:   trace.MaxProc(ts.Events),
	}, nil
}

// Check implements ScenarioGenerator.
func (g *TraceGen) Check(m int) error {
	if g.maxProc >= m {
		return fmt.Errorf("sim: trace names processor %d, platform has %d", g.maxProc, m)
	}
	return nil
}

// FillScenario implements ScenarioGenerator.
func (g *TraceGen) FillScenario(rng *rand.Rand, sc *Scenario, _ *ScenarioScratch) error {
	if err := g.Check(len(sc.CrashTime)); err != nil {
		return err
	}
	resetAlive(sc)
	scale := g.spec.scale()
	apply := func(ev trace.Event) {
		if at := ev.Time * scale; at < sc.CrashTime[ev.Proc] {
			sc.CrashTime[ev.Proc] = at
		}
	}
	if !g.spec.Resample {
		for _, ev := range g.spec.Events {
			apply(ev)
		}
		return nil
	}
	k := len(g.incidents)
	for i := 0; i < k; i++ {
		for _, ev := range g.incidents[rng.Intn(k)] {
			apply(ev)
		}
	}
	return nil
}

// Spec implements ScenarioGenerator.
func (g *TraceGen) Spec() ScenarioSpec { return ScenarioSpec{Kind: "trace", Trace: &g.spec} }

// loadTraceEvents reads a failure trace from a file, converting from CSV
// when the extension says so — the converter path of the trace:FILE flag
// form.
func loadTraceEvents(path string) ([]trace.Event, error) {
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("trace: %v", err)
		}
		defer f.Close()
		return trace.FromCSV(f)
	}
	return trace.ParseFile(path)
}

// traceScenarioKind is the table row of the "trace" kind, whose own parse
// and format take a file and switches, not numbers. The flag form reads the
// trace from disk at parse time (CLI usage); wire requests carry the events
// inline in the spec's trace field, so the server never touches the disk.
func traceScenarioKind() ScenarioKindReg {
	return ScenarioKindReg{
		Name:     "trace",
		Summary:  "replay a recorded failure trace (JSONL or CSV incident log), optionally time-scaled and bootstrap-resampled",
		FlagForm: "trace:FILE[:SCALE][:resample]",
		Params: []ScenarioParam{
			{Name: "trace.events", Type: "events", Doc: "recorded crashes: {proc, time, group?} per event (JSONL lines in the flag-form file)"},
			{Name: "trace.scale", Type: "float", Doc: "multiplier applied to every crash time; omitted means 1", Optional: true},
			{Name: "trace.resample", Type: "bool", Doc: "bootstrap whole incidents with replacement per trial instead of verbatim replay", Optional: true},
		},
		parse: func(spec string, args []string) (ScenarioSpec, error) {
			if len(args) < 1 || len(args) > 3 {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			path := strings.TrimSpace(args[0])
			if path == "" {
				return ScenarioSpec{}, wrongScenarioArity(spec)
			}
			events, err := loadTraceEvents(path)
			if err != nil {
				return ScenarioSpec{}, fmt.Errorf("sim: scenario %q: %v", spec, err)
			}
			ts := &TraceSpec{Events: events}
			for _, arg := range args[1:] {
				arg = strings.TrimSpace(arg)
				if strings.EqualFold(arg, "resample") {
					if ts.Resample {
						return ScenarioSpec{}, fmt.Errorf("sim: scenario %q: duplicate resample", spec)
					}
					ts.Resample = true
					continue
				}
				if ts.Scale != 0 {
					return ScenarioSpec{}, fmt.Errorf("sim: scenario %q: duplicate scale %q", spec, arg)
				}
				if ts.Scale, err = specAtof(spec, arg); err != nil {
					return ScenarioSpec{}, err
				}
				if ts.Scale <= 0 || math.IsInf(ts.Scale, 0) || math.IsNaN(ts.Scale) {
					return ScenarioSpec{}, fmt.Errorf("sim: scenario %q: scale must be a positive finite number, got %s", spec, arg)
				}
			}
			return ScenarioSpec{Kind: "trace", Trace: ts}, nil
		},
		format: func(sp ScenarioSpec) string {
			if sp.Trace == nil {
				return "trace"
			}
			return sp.Trace.String()
		},
		build: func(sp ScenarioSpec) (ScenarioGenerator, error) {
			if sp.Trace == nil {
				return nil, fmt.Errorf("sim: trace scenario needs trace.events (or the trace:FILE flag form)")
			}
			return NewTraceGen(*sp.Trace)
		},
	}
}
