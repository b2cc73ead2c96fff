package sim

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/trace"
)

func testTraceSpec() TraceSpec {
	return TraceSpec{Events: []trace.Event{
		{Proc: 2, Time: 0},
		{Proc: 4, Time: 10, Group: "rack-1"},
		{Proc: 5, Time: 10, Group: "rack-1"},
		{Proc: 1, Time: 40},
	}}
}

func TestTraceGenVerbatim(t *testing.T) {
	g, err := NewTraceGen(testTraceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Check(5); err == nil {
		t.Fatal("Check accepted a platform smaller than the trace")
	}
	if err := g.Check(6); err != nil {
		t.Fatal(err)
	}
	var scratch ScenarioScratch
	sc := NewScenario(6)
	// Verbatim replay must be rng-independent: two different rngs, one draw.
	for _, seed := range []int64{1, 99} {
		rng := rand.New(rand.NewSource(seed))
		if err := g.FillScenario(rng, &sc, &scratch); err != nil {
			t.Fatal(err)
		}
		want := []float64{math.Inf(1), 40, 0, math.Inf(1), 10, 10}
		for p, at := range sc.CrashTime {
			if at != want[p] {
				t.Fatalf("seed %d: processor %d crashes at %g, want %g", seed, p, at, want[p])
			}
		}
	}
}

func TestTraceGenScale(t *testing.T) {
	ts := testTraceSpec()
	ts.Scale = 2.5
	g, err := NewTraceGen(ts)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(6)
	var scratch ScenarioScratch
	if err := g.FillScenario(rand.New(rand.NewSource(1)), &sc, &scratch); err != nil {
		t.Fatal(err)
	}
	if sc.CrashTime[1] != 100 || sc.CrashTime[4] != 25 {
		t.Fatalf("scaled crash times wrong: %v", sc.CrashTime)
	}
}

func TestTraceGenDuplicateProcKeepsEarliest(t *testing.T) {
	g, err := NewTraceGen(TraceSpec{Events: []trace.Event{
		{Proc: 0, Time: 50},
		{Proc: 0, Time: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(2)
	var scratch ScenarioScratch
	if err := g.FillScenario(rand.New(rand.NewSource(1)), &sc, &scratch); err != nil {
		t.Fatal(err)
	}
	if sc.CrashTime[0] != 20 {
		t.Fatalf("duplicate crash kept %g, want the earliest 20", sc.CrashTime[0])
	}
}

func TestTraceGenResample(t *testing.T) {
	ts := testTraceSpec()
	ts.Resample = true
	g, err := NewTraceGen(ts)
	if err != nil {
		t.Fatal(err)
	}
	var scratch ScenarioScratch
	sc := NewScenario(6)
	// Incidents: {p2@0}, {p4,p5}@10 (rack-1), {p1@40} — resampling draws 3
	// with replacement, so the rack pair always crashes together.
	sawDifferent := false
	first := ""
	for trial := 0; trial < 64; trial++ {
		rng := rand.New(rand.NewSource(TrialSeed(7, trial)))
		if err := g.FillScenario(rng, &sc, &scratch); err != nil {
			t.Fatal(err)
		}
		if (sc.CrashTime[4] == 10) != (sc.CrashTime[5] == 10) {
			t.Fatalf("trial %d split the rack incident: %v", trial, sc.CrashTime)
		}
		key := ""
		for _, at := range sc.CrashTime {
			key += fgTest(at) + ","
		}
		if first == "" {
			first = key
		} else if key != first {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Fatal("64 resampled trials were all identical")
	}
	// Same seed -> same draw: the determinism contract of the trial loop.
	a, b := NewScenario(6), NewScenario(6)
	if err := g.FillScenario(rand.New(rand.NewSource(42)), &a, &scratch); err != nil {
		t.Fatal(err)
	}
	if err := g.FillScenario(rand.New(rand.NewSource(42)), &b, &scratch); err != nil {
		t.Fatal(err)
	}
	for p := range a.CrashTime {
		if a.CrashTime[p] != b.CrashTime[p] {
			t.Fatalf("equal seeds drew different scenarios at processor %d", p)
		}
	}
}

func fgTest(v float64) string { return fg(v) }

func TestTraceSpecStringDistinguishesContent(t *testing.T) {
	a := testTraceSpec()
	b := testTraceSpec()
	b.Events = append([]trace.Event(nil), b.Events...)
	b.Events[3].Time = 41
	sa := ScenarioSpec{Kind: "trace", Trace: &a}
	sb := ScenarioSpec{Kind: "trace", Trace: &b}
	if sa.String() == sb.String() {
		t.Fatalf("distinct traces render identically: %q", sa.String())
	}
	c := testTraceSpec()
	sc := ScenarioSpec{Kind: "trace", Trace: &c}
	if sa.String() != sc.String() {
		t.Fatalf("equal traces render differently: %q vs %q", sa.String(), sc.String())
	}
	scaled := testTraceSpec()
	scaled.Scale = 2
	if s := (ScenarioSpec{Kind: "trace", Trace: &scaled}).String(); s == sa.String() || !strings.Contains(s, ":x2") {
		t.Fatalf("scale not reflected in %q", s)
	}
	res := testTraceSpec()
	res.Resample = true
	if s := (ScenarioSpec{Kind: "trace", Trace: &res}).String(); !strings.Contains(s, ":resample") {
		t.Fatalf("resample not reflected in %q", s)
	}
}

func TestParseTraceFlagForm(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "failures.jsonl")
	if err := os.WriteFile(jsonl, []byte("{\"proc\":0,\"time\":5}\n{\"proc\":2,\"time\":9,\"group\":\"g\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := ParseScenarioSpec("trace:" + jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != "trace" || sp.Trace == nil || len(sp.Trace.Events) != 2 {
		t.Fatalf("parsed %+v", sp)
	}
	sp, err = ParseScenarioSpec("trace:" + jsonl + ":2.5:resample")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Trace.Scale != 2.5 || !sp.Trace.Resample {
		t.Fatalf("options not parsed: %+v", sp.Trace)
	}
	if _, err := ParseScenarioSpec("trace:" + jsonl + ":resample:2.5"); err != nil {
		t.Fatal(err) // order-independent options
	}
	csv := filepath.Join(dir, "failures.csv")
	if err := os.WriteFile(csv, []byte("proc,time,group\n1,7,\n3,8,rack\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = ParseScenarioSpec("trace:" + csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Trace.Events) != 2 || sp.Trace.Events[1].Group != "rack" {
		t.Fatalf("csv conversion wrong: %+v", sp.Trace.Events)
	}
	for _, bad := range []string{
		"trace",
		"trace:",
		"trace:" + jsonl + ":0", // zero scale is rejected by Build
		"trace:" + jsonl + ":2:2",
		"trace:" + jsonl + ":resample:resample",
		"trace:" + filepath.Join(dir, "missing.jsonl"),
	} {
		if _, err := ParseScenarioSpec(bad); err == nil {
			t.Errorf("ParseScenarioSpec(%q) accepted a malformed spec", bad)
		}
	}
}

func TestTraceGenThroughEvaluateDeterministic(t *testing.T) {
	inst := instance(t, 8, 8)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := testTraceSpec()
	ts.Resample = true
	gen, err := (ScenarioSpec{Kind: "trace", Trace: &ts}).Generator()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Evaluate(s, gen, 200, EvalOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Evaluate(s, gen, 200, EvalOptions{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("worker counts disagree: %+v vs %+v", r1, r4)
	}
	if r1.Generator != gen.Spec().String() {
		t.Fatalf("generator echo %q, want %q", r1.Generator, gen.Spec().String())
	}
}

func TestScenarioRegistryUnknownKind(t *testing.T) {
	_, err := ParseScenarioSpec("bogus:1")
	if err == nil || !strings.Contains(err.Error(), "trace:FILE") || !strings.Contains(err.Error(), "uniform:N") {
		t.Fatalf("unknown-kind error does not enumerate the registry: %v", err)
	}
	_, err = (ScenarioSpec{Kind: "bogus"}).Generator()
	if err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("Generator unknown-kind error: %v", err)
	}
}

func TestScenarioKindRegsCoverLegacyOrder(t *testing.T) {
	var names []string
	for _, k := range ScenarioKindRegs() {
		names = append(names, k.Name)
	}
	want := []string{"uniform", "exp", "weibull", "group", "burst", "staggered", "trace"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry order %v, want %v", names, want)
		}
	}
	// The flag-form list the errors enumerate keeps the legacy prefix.
	kinds := ScenarioKinds()
	legacy := []string{
		"uniform:N", "exp:LAMBDA", "weibull:SHAPE:SCALE",
		"group:SIZE:LAMBDA", "burst:N:LAMBDA[:SPREAD]", "staggered:N:HORIZON",
	}
	for i, k := range legacy {
		if kinds[i] != k {
			t.Fatalf("flag forms %v lost the legacy prefix %v", kinds, legacy)
		}
	}
}
