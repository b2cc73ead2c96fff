package schedulers

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ftsched/internal/sched"
	"ftsched/internal/workload"
)

// goldenInstance is the fixed instance every golden file was generated on
// (pre-refactor, seed 42 of the paper's generator at granularity 1.0).
func goldenInstance(t testing.TB) *workload.Instance {
	t.Helper()
	inst, err := workload.NewInstance(rand.New(rand.NewSource(42)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func scheduleJSON(t *testing.T, s *sched.Schedule, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if verr := s.Validate(); verr != nil {
		t.Fatalf("schedule invalid: %v", verr)
	}
	var buf bytes.Buffer
	if _, werr := s.WriteTo(&buf); werr != nil {
		t.Fatal(werr)
	}
	return buf.Bytes()
}

// TestRegistryEquivalence asserts, for every registered scheduler, that the
// registry's entry point — the only way to run a scheduler — produces
// schedule JSON byte-identical to the golden file generated from the
// pre-refactor tree, on fixed seeds. This is the contract that keeps
// ftserved's fingerprint-keyed response cache stable across refactors: same
// request bytes in, same response bytes out.
func TestRegistryEquivalence(t *testing.T) {
	inst := goldenInstance(t)
	g, p, cm := inst.Graph, inst.Platform, inst.Costs
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

	cases := []struct {
		golden string // file under testdata/, "" when the variant predates no golden
		name   string // registry name (or alias) to resolve
		opt    sched.RunOptions
	}{
		{golden: "ftsa-eps2", name: "ftsa", opt: sched.RunOptions{Epsilon: 2}},
		{golden: "ftsa-eps1-seed7", name: "FTSA", opt: sched.RunOptions{Epsilon: 1, Rng: rng(7)}},
		{golden: "mcftsa-greedy-eps2", name: "mcftsa", opt: sched.RunOptions{Epsilon: 2}},
		{golden: "mcftsa-bottleneck-eps2", name: "MC-FTSA", opt: sched.RunOptions{Epsilon: 2, Policy: "bottleneck"}},
		{golden: "ftbar-eps2", name: "ftbar", opt: sched.RunOptions{Epsilon: 2}},
		{golden: "ftbar-eps1-seed7", name: "FTBAR", opt: sched.RunOptions{Epsilon: 1, Rng: rng(7)}},
		{golden: "heft", name: "heft", opt: sched.RunOptions{}},
		{golden: "heft-noinsertion", name: "HEFT", opt: sched.RunOptions{Policy: "noinsertion"}},
		// ftsa-ins is registry-born: it has no pre-refactor golden, so its
		// case only runs and validates it.
		{name: "ftsa-ins", opt: sched.RunOptions{Epsilon: 2}},
	}

	covered := make(map[string]bool)
	for _, tc := range cases {
		label := tc.golden
		if label == "" {
			label = tc.name
		}
		t.Run(label, func(t *testing.T) {
			s, err := sched.Run(tc.name, g, p, cm, tc.opt)
			viaRegistry := scheduleJSON(t, s, err)
			if tc.golden != "" {
				want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(viaRegistry, want) {
					t.Fatalf("schedule differs from pre-refactor golden %s (%d vs %d bytes)",
						tc.golden, len(viaRegistry), len(want))
				}
			}
			info, ok := sched.LookupInfo(tc.name)
			if !ok {
				t.Fatalf("LookupInfo(%q) failed", tc.name)
			}
			covered[info.Name()] = true
		})
	}
	// Every registered scheduler must be covered by at least one case, so a
	// future registration cannot silently skip the equivalence gate.
	for _, name := range sched.Names() {
		if !covered[name] {
			t.Errorf("registered scheduler %q has no equivalence case", name)
		}
	}
}

// TestRegistryNames pins the canonical names and aliases the rest of the
// system (HTTP API, campaign grids, CLIs) relies on.
func TestRegistryNames(t *testing.T) {
	want := []string{"ftsa", "mcftsa", "ftsa-ins", "ftbar", "heft"}
	got := sched.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for alias, canonical := range map[string]string{
		"MC-FTSA": "mcftsa", "mc-ftsa": "mcftsa", "FTSAINS": "ftsa-ins", "Heft": "heft",
	} {
		info, ok := sched.LookupInfo(alias)
		if !ok || info.Name() != canonical {
			t.Errorf("LookupInfo(%q) = %v, %v; want %s", alias, info.Name(), ok, canonical)
		}
	}
}
