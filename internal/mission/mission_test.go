package mission_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"ftsched/internal/mission"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// mustGen materializes a scenario spec's generator.
func mustGen(t testing.TB, sp sim.ScenarioSpec) sim.ScenarioGenerator {
	t.Helper()
	gen, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func missionSpec(t testing.TB, procs, eps int, policy mission.Policy) mission.Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 30, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mission.Spec{
		Graph: inst.Graph, Platform: inst.Platform, Costs: inst.Costs,
		Scheduler: "mcftsa", Epsilon: eps, Seed: 7, Policy: policy, TaskEvents: true,
	}
}

func collectLog(t testing.TB, c *mission.Controller, sc sim.Scenario) ([]byte, mission.Outcome) {
	t.Helper()
	var log bytes.Buffer
	out, err := c.Run(sc, func(line []byte) {
		log.Write(line)
		log.WriteByte('\n')
	})
	if err != nil {
		t.Fatal(err)
	}
	return log.Bytes(), out
}

// crashScenario crashes n processors at evenly staggered fractions of the
// initial plan's lower bound, guaranteeing mid-flight failures.
func crashScenario(c *mission.Controller, m, n int) sim.Scenario {
	sc := sim.NoFailures(m)
	lb := c.InitialPlan().LowerBound()
	for i := 0; i < n; i++ {
		sc.CrashTime[(i*3)%m] = lb * (0.2 + 0.5*float64(i)/float64(n))
	}
	return sc
}

// The tentpole contract: same spec + scenario, byte-identical event log and
// final report — across runs of one controller and across fresh controllers.
func TestMissionLogDeterministic(t *testing.T) {
	for _, policy := range []mission.Policy{mission.PolicyStatic, mission.PolicyReschedule} {
		t.Run(string(policy), func(t *testing.T) {
			spec := missionSpec(t, 6, 2, policy)
			c1, err := mission.NewController(spec)
			if err != nil {
				t.Fatal(err)
			}
			sc := crashScenario(c1, 6, 2)
			log1, out1 := collectLog(t, c1, sc)
			log2, out2 := collectLog(t, c1, sc) // same controller, reused scratch
			c3, err := mission.NewController(spec)
			if err != nil {
				t.Fatal(err)
			}
			log3, out3 := collectLog(t, c3, sc) // fresh controller
			if !bytes.Equal(log1, log2) || !bytes.Equal(log1, log3) {
				t.Fatalf("event logs differ across runs:\n%s\nvs\n%s\nvs\n%s", log1, log2, log3)
			}
			if out1 != out2 || out1 != out3 {
				t.Fatalf("outcomes differ: %+v vs %+v vs %+v", out1, out2, out3)
			}
		})
	}
}

// Event logs must be well-formed JSONL: dense sequence numbers, a plan
// first, exactly one terminal event last, counts matching the outcome.
func TestMissionLogWellFormed(t *testing.T) {
	spec := missionSpec(t, 6, 1, mission.PolicyReschedule)
	c, err := mission.NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	log, out := collectLog(t, c, crashScenario(c, 6, 2))
	lines := bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n"))
	if len(lines) != out.Events {
		t.Fatalf("log has %d lines, outcome reports %d events", len(lines), out.Events)
	}
	terminal := 0
	var prevT float64
	for i, line := range lines {
		var ev struct {
			Seq  int     `json:"seq"`
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if ev.Seq != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
		if ev.T < 0 {
			t.Fatalf("line %d has negative time %v", i, ev.T)
		}
		switch ev.Kind {
		case mission.EventComplete, mission.EventAbort:
			terminal++
			if i != len(lines)-1 {
				t.Fatalf("terminal event at line %d of %d", i, len(lines))
			}
		case mission.EventPlan:
			if i != 0 {
				t.Fatalf("plan event at line %d; want 0", i)
			}
		case mission.EventReplan, mission.EventTask, mission.EventCrash:
		default:
			t.Fatalf("line %d: unknown kind %q", i, ev.Kind)
		}
		_ = prevT
		prevT = ev.T
	}
	if terminal != 1 {
		t.Fatalf("log has %d terminal events, want 1", terminal)
	}
	if out.Replans == 0 || out.Crashes == 0 {
		t.Fatalf("scenario exercised nothing: %+v", out)
	}
}

// A static-policy mission is a replay: EvaluatePolicy(static) must be
// bit-identical to sim.Evaluate of the initial plan.
func TestEvaluatePolicyStaticMatchesEvaluate(t *testing.T) {
	spec := missionSpec(t, 6, 2, mission.PolicyStatic)
	c, err := mission.NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 2})
	want, err := sim.Evaluate(c.InitialPlan(), gen, 250, sim.EvalOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mission.EvaluatePolicy(spec, gen, 250, sim.EvalOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("static policy diverges from sim.Evaluate:\n%s\nvs\n%s", gb, wb)
	}
}

// EvaluatePolicy must be worker-count independent, like sim.Evaluate.
func TestEvaluatePolicyDeterministicAcrossWorkers(t *testing.T) {
	spec := missionSpec(t, 6, 1, mission.PolicyReschedule)
	gen := mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 0.02})
	var want []byte
	for _, workers := range []int{1, 4} {
		res, err := mission.EvaluatePolicy(spec, gen, 200, sim.EvalOptions{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := json.Marshal(res)
		if want == nil {
			want = blob
		} else if !bytes.Equal(blob, want) {
			t.Fatalf("workers=%d result differs:\n%s\nvs\n%s", workers, blob, want)
		}
	}
}

// The policy comparison the tentpole exists for: on identical failure
// draws, re-scheduling must not lose to riding out the failures statically.
// Pinned for two scenario kinds (the acceptance criterion's floor).
func TestReschedulePolicyBeatsStatic(t *testing.T) {
	static := missionSpec(t, 6, 1, mission.PolicyStatic)
	resched := static
	resched.Policy = mission.PolicyReschedule
	for _, gen := range []sim.ScenarioGenerator{
		mustGen(t, sim.ScenarioSpec{Kind: "uniform", Crashes: 3}),
		mustGen(t, sim.ScenarioSpec{Kind: "exp", Lambda: 0.05}),
	} {
		t.Run(gen.Spec().Kind, func(t *testing.T) {
			opt := sim.EvalOptions{Seed: 17}
			rs, err := mission.EvaluatePolicy(static, gen, 300, opt)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := mission.EvaluatePolicy(resched, gen, 300, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rr.SuccessRate < rs.SuccessRate {
				t.Fatalf("re-scheduling success %.3f < static %.3f", rr.SuccessRate, rs.SuccessRate)
			}
			if rr.SuccessRate == rs.SuccessRate && rs.SuccessRate == 1 {
				t.Skipf("scenario too gentle to separate policies (both 1.0)")
			}
		})
	}
}

// A single crash with ε=0 (heft, no replication) kills a static mission but
// a re-scheduling one recovers — the qualitative claim in one scenario.
func TestRescheduleRecoversUnreplicatedCrash(t *testing.T) {
	spec := missionSpec(t, 4, 0, mission.PolicyStatic)
	spec.Scheduler = "heft"
	c, err := mission.NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NoFailures(4)
	sc.CrashTime[0] = 0.3 * c.InitialPlan().LowerBound()
	_, outStatic := collectLog(t, c, sc)
	if outStatic.Success {
		t.Skip("crash did not hit the static plan; pick a different instance")
	}
	spec.Policy = mission.PolicyReschedule
	cr, err := mission.NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, outRe := collectLog(t, cr, sc)
	if !outRe.Success {
		t.Fatalf("re-scheduling mission failed too: %+v", outRe)
	}
	if outRe.Replans == 0 || outRe.Crashes != 1 {
		t.Fatalf("expected one crash and at least one replan: %+v", outRe)
	}
}

// No failures: both policies complete with the replay latency of the
// initial plan and an empty crash log.
func TestMissionNoFailures(t *testing.T) {
	for _, policy := range []mission.Policy{mission.PolicyStatic, mission.PolicyReschedule} {
		spec := missionSpec(t, 6, 1, policy)
		c, err := mission.NewController(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, out := collectLog(t, c, sim.NoFailures(6))
		if !out.Success || out.Crashes != 0 || out.Replans != 0 {
			t.Fatalf("%s: %+v", policy, out)
		}
		if out.Latency <= 0 || out.Latency > c.InitialPlan().UpperBound() {
			t.Fatalf("%s: latency %v outside (0, upper %v]", policy, out.Latency, c.InitialPlan().UpperBound())
		}
	}
}

// All processors failing aborts the mission rather than erroring.
func TestMissionAllProcessorsFail(t *testing.T) {
	spec := missionSpec(t, 4, 1, mission.PolicyReschedule)
	c, err := mission.NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NoFailures(4)
	lb := c.InitialPlan().LowerBound()
	for p := range sc.CrashTime {
		sc.CrashTime[p] = lb * 0.1 * float64(p+1)
	}
	_, out := collectLog(t, c, sc)
	if out.Success {
		t.Fatalf("mission survived all processors failing: %+v", out)
	}
	if out.Reason == "" {
		t.Fatal("aborted mission must carry a reason")
	}
}
