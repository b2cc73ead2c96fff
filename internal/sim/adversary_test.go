package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/workload"
)

// instanceTB is the benchmark-friendly twin of sim_test.go's instance.
func instanceTB(tb testing.TB, seed int64, procs int) *workload.Instance {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func adversarySchedule(t testing.TB, seed int64, procs, eps int) *sched.Schedule {
	t.Helper()
	inst := instanceTB(t, seed, procs)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorstCaseZeroBudgetIsBaseline(t *testing.T) {
	s := adversarySchedule(t, 1, 6, 1)
	wc, err := WorstCase(s, AdversarySpec{Crashes: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Missed || len(wc.Crashes) != 0 || wc.Evals != 1 || !wc.Exhaustive {
		t.Fatalf("zero-budget worst case %+v", wc)
	}
	if diff := math.Abs(wc.Latency - s.LowerBound()); diff > 1e-7 {
		t.Fatalf("baseline latency %g, lower bound %g", wc.Latency, s.LowerBound())
	}
	if wc.Degradation != 0 {
		t.Fatalf("baseline degradation %g", wc.Degradation)
	}
}

// ε-fault-tolerant schedules survive any ε crashes (Theorem 4.1), so the
// adversary cannot force a miss within that budget — but ε+1 crashes at
// time 0 can defeat a schedule, and the exhaustive phase must find a miss
// whenever one exists in the crash-at-zero space.
func TestWorstCaseRespectsTheorem(t *testing.T) {
	s := adversarySchedule(t, 2, 6, 2)
	wc, err := WorstCase(s, AdversarySpec{Crashes: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Missed {
		t.Fatalf("adversary defeated an ε=2 schedule with 2 crashes: %+v", wc)
	}
	if !wc.Exhaustive {
		t.Fatalf("C(6,2)=15 should be exhaustive within the default budget: %+v", wc)
	}
	if wc.Latency < s.LowerBound()-1e-9 {
		t.Fatalf("worst latency %g below lower bound %g", wc.Latency, s.LowerBound())
	}
	// Crashing every processor defeats any schedule.
	all, err := WorstCase(s, AdversarySpec{Crashes: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Missed {
		t.Fatalf("crashing all 6 processors did not miss: %+v", all)
	}
}

// The exhaustive crash-at-zero phase covers uniform:k's entire support, so
// the reported worst case dominates every Monte-Carlo draw of that shape —
// deterministically, not statistically.
func TestWorstCaseDominatesUniformDraws(t *testing.T) {
	s := adversarySchedule(t, 3, 7, 1)
	const k = 2
	wc, err := WorstCase(s, AdversarySpec{Crashes: k}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Exhaustive {
		t.Fatalf("C(7,2)=21 should be exhaustive: %+v", wc)
	}
	gen := mustGen(t, ScenarioSpec{Kind: "uniform", Crashes: k})
	var scratch ScenarioScratch
	sc := NewScenario(7)
	rp, err := newReplayer(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.release()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(TrialSeed(11, trial)))
		if err := gen.FillScenario(rng, &sc, &scratch); err != nil {
			t.Fatal(err)
		}
		lat, _, badExit, err := rp.replay(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if badExit >= 0 && !wc.Missed {
			t.Fatalf("trial %d missed but worst case did not", trial)
		}
		if badExit < 0 && !wc.Missed && lat > wc.Latency+1e-9 {
			t.Fatalf("trial %d latency %g beats reported worst %g", trial, lat, wc.Latency)
		}
	}
}

func TestWorstCaseDeterministic(t *testing.T) {
	s := adversarySchedule(t, 4, 8, 1)
	spec := AdversarySpec{Crashes: 3, TimeGrid: 6, MaxEvals: 500}
	a, err := WorstCase(s, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := WorstCase(s, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical searches disagree:\n%+v\n%+v", a, b)
	}
	if a.Evals > 500 {
		t.Fatalf("search spent %d evals over the budget of 500", a.Evals)
	}
}

func TestWorstCaseGroups(t *testing.T) {
	s := adversarySchedule(t, 5, 8, 1)
	wc, err := WorstCase(s, AdversarySpec{Crashes: 1, GroupSize: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One rack of 4 crashes as a unit: the pattern must cover a full
	// aligned rack.
	if len(wc.Crashes) != 4 {
		t.Fatalf("rack attack crashed %d processors, want 4: %+v", len(wc.Crashes), wc.Crashes)
	}
	first := wc.Crashes[0].Proc
	if first%4 != 0 {
		t.Fatalf("rack starts at processor %d, want a multiple of 4", first)
	}
	for i, ev := range wc.Crashes {
		if ev.Proc != first+i || ev.Time != wc.Crashes[0].Time {
			t.Fatalf("rack pattern not aligned/simultaneous: %+v", wc.Crashes)
		}
	}
}

func TestWorstCaseBudgetClamp(t *testing.T) {
	s := adversarySchedule(t, 6, 6, 1)
	// Tiny budget: only the baseline fits; the search degrades to the
	// baseline rather than erroring.
	wc, err := WorstCase(s, AdversarySpec{Crashes: 2, MaxEvals: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Evals != 1 || wc.Missed || len(wc.Crashes) != 0 {
		t.Fatalf("budget-1 search %+v", wc)
	}
	if _, err := WorstCase(s, AdversarySpec{Crashes: -1}, Options{}); err == nil {
		t.Fatal("negative crashes accepted")
	}
	if _, err := WorstCase(s, AdversarySpec{MaxEvals: maxAdversaryEvals + 1}, Options{}); err == nil {
		t.Fatal("over-cap max_evals accepted")
	}
}

func TestAdversarySpecString(t *testing.T) {
	// Defaults canonicalize: an omitted field and its explicit default
	// render identically (the property cache keys need).
	a := AdversarySpec{Crashes: 2}
	b := AdversarySpec{Crashes: 2, GroupSize: 1, TimeGrid: defaultTimeGrid, MaxEvals: defaultMaxEvals}
	if a.String() != b.String() {
		t.Fatalf("default canonicalization broken: %q vs %q", a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), "adv:2:") {
		t.Fatalf("unexpected spec form %q", a.String())
	}
	if a.String() == (AdversarySpec{Crashes: 3}).String() {
		t.Fatal("distinct budgets render identically")
	}
}

func BenchmarkAdversarialSearch(b *testing.B) {
	s := adversarySchedule(b, 7, 10, 1)
	spec := AdversarySpec{Crashes: 2, TimeGrid: 4, MaxEvals: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WorstCase(s, spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
