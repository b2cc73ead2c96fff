package sched

import (
	"errors"
	"strings"
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

func TestRegistryLookupAndAliases(t *testing.T) {
	var got RunOptions
	Register(Registration{
		Scheduler:     &fakeSched{name: "fake-a", got: &got},
		Aliases:       []string{"FAKE-ALPHA", "fa"},
		Description:   "test double",
		FaultTolerant: true,
		Policies:      []string{"p1"},
		Deadlines:     true,
	})

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
	if got.Epsilon != 2 || got.Policy != "p1" || got.Latency != 10 {
		t.Fatalf("options not forwarded: %+v", got)
	}
}

func TestRegistryUnknownErrorListsNames(t *testing.T) {
	Register(Registration{Scheduler: &fakeSched{name: "fake-b"}, Description: "test double"})
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
	Register(Registration{Scheduler: &fakeSched{name: "fake-e"}})
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
