package sched

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// fakeSched is a registry test double; its Schedule records the options it
// was invoked with.
type fakeSched struct {
	name string
	got  *RunOptions
}

func (f *fakeSched) Name() string { return f.name }

func (f *fakeSched) Schedule(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions) (*Schedule, error) {
	if f.got != nil {
		*f.got = opt
	}
	return nil, errors.New("fake: not implemented")
}

// The fakes go into the process-wide registry, which refuses a name twice,
// so they are registered once per test binary however often -count reruns
// the tests. What they record lives here too: a fake registered on an
// earlier pass reports to the pass that calls it now.
var (
	registerFakesOnce sync.Once
	fakeAGot          RunOptions // the options fake-a was last run with
	maxEpsFailAt      = -1       // the ε at which fake-maxeps fails
)

func registerFakes() {
	registerFakesOnce.Do(func() {
		Register(Registration{
			Scheduler:     &fakeSched{name: "fake-a", got: &fakeAGot},
			Aliases:       []string{"FAKE-ALPHA", "fa"},
			Description:   "test double",
			FaultTolerant: true,
			Policies:      []string{"p1"},
			Deadlines:     true,
		})
		Register(Registration{Scheduler: &fakeSched{name: "fake-b"}, Description: "test double"})
		Register(Registration{Scheduler: &fakeSched{name: "fake-e"}})
		Register(Registration{FaultTolerant: true, Scheduler: Func("fake-maxeps", fakeMaxEps)})
		// A scheduler that does not replicate answers ε=0 instead of
		// refusing the search's first probe.
		Register(Registration{Scheduler: Func("fake-maxeps-noft", fakeMaxEps)})
	})
}

var errProbe = errors.New("fake: probe failed")

// fakeMaxEps guarantees a latency of 10·(ε+1), and fails at maxEpsFailAt.
func fakeMaxEps(g *dag.Graph, p *platform.Platform, cm *platform.CostModel, opt RunOptions) (*Schedule, error) {
	if opt.Epsilon == maxEpsFailAt {
		return nil, errProbe
	}
	s, err := New(g, p, cm, opt.Epsilon, PatternAll, "fake")
	if err != nil {
		return nil, err
	}
	reps := make([]Replica, opt.Epsilon+1)
	for i := range reps {
		end := 10 * float64(opt.Epsilon+1)
		reps[i] = Replica{Task: 0, Copy: i, Proc: platform.ProcID(i), FinishMin: 10, StartMax: end - 10, FinishMax: end}
	}
	return s, s.Place(0, reps)
}

func TestRegistryLookupAndAliases(t *testing.T) {
	registerFakes()
	fakeAGot = RunOptions{}

	for _, name := range []string{"fake-a", "FAKE-A", "fake-alpha", "FA"} {
		if _, ok := LookupInfo(name); !ok {
			t.Fatalf("LookupInfo(%q) failed", name)
		}
	}
	if _, ok := LookupInfo("fake-nope"); ok {
		t.Fatal("LookupInfo of unregistered name succeeded")
	}
	info, ok := LookupInfo("fa")
	if !ok || info.Name() != "fake-a" {
		t.Fatalf("LookupInfo via alias: %+v, ok=%v", info, ok)
	}
	aliases := AliasesOf("fake-a")
	if len(aliases) != 2 || aliases[0] != "FAKE-ALPHA" || aliases[1] != "fa" {
		t.Fatalf("AliasesOf = %v", aliases)
	}

	found := false
	for _, n := range Names() {
		if n == "fake-a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() %v does not contain fake-a", Names())
	}

	// Run resolves, checks and forwards the options.
	_, err := Run("Fake-Alpha", nil, nil, nil, RunOptions{Epsilon: 2, Policy: "p1", Latency: 10})
	if err == nil || !strings.Contains(err.Error(), "fake: not implemented") {
		t.Fatalf("Run did not reach the scheduler: %v", err)
	}
	if got := fakeAGot; got.Epsilon != 2 || got.Policy != "p1" || got.Latency != 10 {
		t.Fatalf("options not forwarded: %+v", got)
	}
}

func TestRegistryUnknownErrorListsNames(t *testing.T) {
	registerFakes()
	err := UnknownSchedulerError("bogus")
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("err = %v, want ErrUnknownScheduler", err)
	}
	if !strings.Contains(err.Error(), "fake-b") {
		t.Fatalf("error %q does not enumerate registered names", err)
	}
	if _, runErr := Run("bogus", nil, nil, nil, RunOptions{}); !errors.Is(runErr, ErrUnknownScheduler) {
		t.Fatalf("Run unknown: %v", runErr)
	}
}

func TestRegistrationCheck(t *testing.T) {
	r := Registration{
		Scheduler:     &fakeSched{name: "fake-c"},
		FaultTolerant: false,
		Policies:      []string{"alt"},
	}
	cases := []struct {
		name string
		opt  RunOptions
		want string // substring of the error, "" for success
	}{
		{"defaults", RunOptions{}, ""},
		{"policy ok", RunOptions{Policy: "alt"}, ""},
		{"negative epsilon", RunOptions{Epsilon: -1}, "epsilon must be >= 0"},
		{"not fault tolerant", RunOptions{Epsilon: 1}, "not fault-tolerant"},
		{"unknown policy", RunOptions{Policy: "bogus"}, "unknown policy"},
		{"no deadline variant", RunOptions{Latency: 5}, "no deadline-checked variant"},
	}
	for _, tc := range cases {
		err := r.Check(tc.opt)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A latency must be a finite non-negative number: NaN fails both
	// comparisons of a plain range check.
	dl := Registration{Scheduler: &fakeSched{name: "fake-dl"}, Deadlines: true}
	for _, lat := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := dl.Check(RunOptions{Latency: lat}); err == nil || !strings.Contains(err.Error(), "latency must be finite and >= 0") {
			t.Errorf("latency %g: err = %v", lat, err)
		}
	}
	if err := dl.Check(RunOptions{Latency: 5}); err != nil {
		t.Errorf("latency 5: %v", err)
	}
	// A scheduler with no policies reports that, rather than listing nothing.
	noPol := Registration{Scheduler: &fakeSched{name: "fake-d"}}
	if err := noPol.Check(RunOptions{Policy: "x"}); err == nil || !strings.Contains(err.Error(), "accepts no policy") {
		t.Errorf("no-policy check: %v", err)
	}
}

func TestRegistryTableContainsEveryEntry(t *testing.T) {
	table := RegistryTable()
	for _, name := range Names() {
		if !strings.Contains(table, "`"+name+"`") {
			t.Errorf("RegistryTable misses %q:\n%s", name, table)
		}
	}
	if !strings.HasPrefix(table, "| Scheduler |") {
		t.Errorf("RegistryTable header malformed:\n%s", table)
	}
}

func TestRegisterCollisionPanics(t *testing.T) {
	registerFakes()
	for _, bad := range []Registration{
		{Scheduler: &fakeSched{name: "fake-e"}},                              // duplicate name
		{Scheduler: &fakeSched{name: "fake-f"}, Aliases: []string{"FAKE-E"}}, // alias collides with name
		{Scheduler: &fakeSched{name: "Fake-G"}},                              // non-canonical name
		{Scheduler: nil},                                                     // nil scheduler
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", bad)
				}
			}()
			Register(bad)
		}()
	}
}

func TestSweepPolicies(t *testing.T) {
	cases := []struct {
		reg  Registration
		want []string
	}{
		// No policies: sweep only the unnamed default.
		{Registration{}, []string{""}},
		// A DefaultPolicy names the unnamed behavior, so "" would duplicate
		// a grid point; the registered policies already cover everything.
		{Registration{Policies: []string{"greedy", "bottleneck"}, DefaultPolicy: "greedy"},
			[]string{"greedy", "bottleneck"}},
		// Policies without a DefaultPolicy: the unnamed default is a real
		// distinct behavior the sweep must include.
		{Registration{Policies: []string{"noduplication"}},
			[]string{"", "noduplication"}},
	}
	for _, c := range cases {
		got := c.reg.SweepPolicies()
		if len(got) != len(c.want) {
			t.Errorf("SweepPolicies(%+v) = %q, want %q", c.reg, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SweepPolicies(%+v) = %q, want %q", c.reg, got, c.want)
				break
			}
		}
	}
}

// TestMaxToleratedFailures drives the ε search with a fake whose guaranteed
// latency is 10·(ε+1): only an upper bound above the budget shrinks the
// search, and a probe that fails ends it with that probe's error.
func TestMaxToleratedFailures(t *testing.T) {
	g := dag.NewWithTasks("one", 1)
	p, err := uniformPlatform(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix([][]float64{{10, 10, 10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	registerFakes()
	defer func() { maxEpsFailAt = -1 }()
	if eps, _, err := MaxToleratedFailures("fake-maxeps-noft", g, p, cm, RunOptions{}, 1e9); err != nil || eps != 0 {
		t.Errorf("not fault-tolerant: ε = %d, %v; want 0", eps, err)
	}

	for budget, want := range map[float64]int{10: 0, 25: 1, 40: 3, 1e9: 3} {
		eps, s, err := MaxToleratedFailures("fake-maxeps", g, p, cm, RunOptions{}, budget)
		if err != nil || eps != want || s.Epsilon != want {
			t.Errorf("budget %g: ε = %d, %v; want %d", budget, eps, err, want)
		}
	}
	if _, _, err := MaxToleratedFailures("fake-maxeps", g, p, cm, RunOptions{}, 5); !errors.Is(err, ErrLatencyUnachievable) {
		t.Errorf("budget 5: %v, want ErrLatencyUnachievable", err)
	}
	// The first probe is ε=1; it fails, and the search must not read the
	// failure as "ε=1 is too slow" and settle on ε=0.
	maxEpsFailAt = 1
	if _, _, err := MaxToleratedFailures("fake-maxeps", g, p, cm, RunOptions{}, 1e9); !errors.Is(err, errProbe) {
		t.Errorf("failing probe: %v, want %v", err, errProbe)
	}
	for _, budget := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := MaxToleratedFailures("fake-maxeps", g, p, cm, RunOptions{}, budget); err == nil ||
			!strings.Contains(err.Error(), "latency budget must be finite and positive") {
			t.Errorf("budget %g: %v", budget, err)
		}
	}
}
