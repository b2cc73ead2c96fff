package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	_ "ftsched/internal/schedulers"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// sumTasks builds deterministic task functions: each task outputs the sum
// of its inputs plus its own ID, so the exit values have a unique correct
// answer computable by a sequential reference sweep.
func sumTasks(g *dag.Graph) []Task {
	fns := make([]Task, g.NumTasks())
	for t := 0; t < g.NumTasks(); t++ {
		t := t
		fns[t] = func(inputs []Payload) (Payload, error) {
			sum := uint64(t)
			for _, in := range inputs {
				sum += binary.LittleEndian.Uint64(in)
			}
			out := make(Payload, 8)
			binary.LittleEndian.PutUint64(out, sum)
			return out, nil
		}
	}
	return fns
}

// reference computes the expected per-task values sequentially.
func reference(g *dag.Graph) []uint64 {
	f, _ := g.Freeze()
	val := make([]uint64, g.NumTasks())
	for _, t := range f.TopologicalOrder() {
		sum := uint64(t)
		for _, pe := range g.Preds(t) {
			sum += val[pe.To]
		}
		val[t] = sum
	}
	return val
}

func buildInstance(t *testing.T, seed int64, procs int) *workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultPaperConfig(1.0)
	cfg.Procs = procs
	cfg.DAG.MinTasks, cfg.DAG.MaxTasks = 25, 40
	inst, err := workload.NewInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func checkOutputs(t *testing.T, g *dag.Graph, rep *Report) {
	t.Helper()
	want := reference(g)
	for tsk := 0; tsk < g.NumTasks(); tsk++ {
		if rep.Output[tsk] == nil {
			t.Fatalf("task %d has no output", tsk)
		}
		got := binary.LittleEndian.Uint64(rep.Output[tsk])
		if got != want[tsk] {
			t.Fatalf("task %d output %d, want %d", tsk, got, want[tsk])
		}
	}
}

func TestExecutorFailureFree(t *testing.T) {
	inst := buildInstance(t, 1, 6)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, sumTasks(inst.Graph), Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, inst.Graph, rep)
	// Every replica completes without failures.
	for tsk, n := range rep.CompletedCopies {
		if n != 3 {
			t.Errorf("task %d completed %d copies, want 3", tsk, n)
		}
	}
	if rep.Starved != 0 || rep.TaskErrors != 0 {
		t.Errorf("unexpected starvation/errors: %+v", rep)
	}
}

func TestExecutorSurvivesCrashAtStart(t *testing.T) {
	// Theorem 4.1 with real goroutines: kill every pair of processors
	// (crash-after-0) and verify all outputs are still produced and equal
	// the sequential reference.
	inst := buildInstance(t, 2, 5)
	const eps = 2
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	fns := sumTasks(inst.Graph)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			rep, err := Run(s, fns, Config{CrashAfter: map[platform.ProcID]int{
				platform.ProcID(a): 0,
				platform.ProcID(b): 0,
			}})
			if err != nil {
				t.Fatalf("crash {%d,%d}: %v", a, b, err)
			}
			checkOutputs(t, inst.Graph, rep)
		}
	}
}

func TestExecutorMidQueueCrashes(t *testing.T) {
	// Processors die after finishing part of their queue: earlier work is
	// delivered, later work is lost; outputs must still be complete with
	// ε=2 and two failed processors.
	inst := buildInstance(t, 3, 6)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, sumTasks(inst.Graph), Config{CrashAfter: map[platform.ProcID]int{
		0: 3,
		4: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, inst.Graph, rep)
}

func TestExecutorMatchedPatternFailureFree(t *testing.T) {
	inst := buildInstance(t, 4, 6)
	s, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, sumTasks(inst.Graph), Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, inst.Graph, rep)
	// The matched pattern sends at most e(ε+1) messages.
	if max := inst.Graph.NumEdges() * 3; rep.MessagesSent > max {
		t.Errorf("messages %d exceed e(ε+1)=%d", rep.MessagesSent, max)
	}
}

func TestExecutorDemonstratesStrictStarvation(t *testing.T) {
	// Finding F1 with real concurrency: the executor implements the strict
	// matched protocol (no rerouting), so an MC-FTSA schedule of a deep
	// graph starves under a single crash — while FTSA's full pattern
	// survives the same crash. The executor must terminate cleanly (no
	// deadlock) either way, thanks to sender retraction.
	inst := buildInstance(t, 5, 6)
	const eps = 2
	mc, err := sched.Run("mcftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	ftsa, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	fns := sumTasks(inst.Graph)
	starvedSomewhere := false
	for p := 0; p < 6; p++ {
		crash := Config{CrashAfter: map[platform.ProcID]int{platform.ProcID(p): 0}}
		if _, err := Run(mc, fns, crash); err != nil {
			if !errors.Is(err, ErrIncomplete) {
				t.Fatalf("crash P%d: unexpected error %v", p, err)
			}
			starvedSomewhere = true
		}
		rep, err := Run(ftsa, fns, crash)
		if err != nil {
			t.Fatalf("FTSA crash P%d: %v", p, err)
		}
		checkOutputs(t, inst.Graph, rep)
	}
	if !starvedSomewhere {
		t.Log("note: instance happened to be strictly robust under single crashes")
	}
}

func TestExecutorTaskErrorIsReplicaFault(t *testing.T) {
	// One replica's function fails (simulated transient fault); the other
	// replicas still deliver the result.
	inst := buildInstance(t, 6, 6)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	fns := sumTasks(inst.Graph)
	var mu sync.Mutex
	failOnce := true
	orig := fns[0]
	fns[0] = func(inputs []Payload) (Payload, error) {
		mu.Lock()
		fail := failOnce
		failOnce = false
		mu.Unlock()
		if fail {
			return nil, fmt.Errorf("injected fault")
		}
		return orig(inputs)
	}
	rep, err := Run(s, fns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, inst.Graph, rep)
	if rep.TaskErrors != 1 {
		t.Errorf("TaskErrors = %d, want 1", rep.TaskErrors)
	}
}

func TestExecutorConfigValidation(t *testing.T) {
	inst := buildInstance(t, 7, 4)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, nil, Config{}); !errors.Is(err, ErrTaskCount) {
		t.Errorf("nil functions: %v", err)
	}
	fns := sumTasks(inst.Graph)
	if _, err := Run(s, fns, Config{CrashAfter: map[platform.ProcID]int{9: 0}}); err == nil {
		t.Error("invalid processor accepted")
	}
	if _, err := Run(s, fns, Config{CrashAfter: map[platform.ProcID]int{0: -1}}); err == nil {
		t.Error("negative crash budget accepted")
	}
	empty, err := sched.New(inst.Graph, inst.Platform, inst.Costs, 1, sched.PatternAll, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(empty, fns, Config{}); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestExecutorAllProcessorsDead(t *testing.T) {
	inst := buildInstance(t, 8, 3)
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	crash := map[platform.ProcID]int{0: 0, 1: 0, 2: 0}
	if _, err := Run(s, sumTasks(inst.Graph), Config{CrashAfter: crash}); !errors.Is(err, ErrIncomplete) {
		t.Errorf("all-dead execution: %v", err)
	}
}

// TestExecutorCrashEveryPrefix is Theorem 4.1 as an exhaustive executable
// property: for EVERY processor and EVERY crash point in its queue (after
// 0, 1, ..., all of its replicas), alone and paired with a second processor
// dead from the start (total failures = ε), every task still produces the
// sequential reference output. The mission controller's replay banks the
// replicas a processor completed before its crash; this test is the
// concurrent ground truth that banking is sound at every possible prefix.
func TestExecutorCrashEveryPrefix(t *testing.T) {
	inst := buildInstance(t, 9, 5)
	const m, eps = 5, 2
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	fns := sumTasks(inst.Graph)
	queueLen := make([]int, m)
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		for _, r := range s.Replicas(dag.TaskID(tsk)) {
			queueLen[r.Proc]++
		}
	}
	for p := 0; p < m; p++ {
		for k := 0; k <= queueLen[p]; k++ {
			rep, err := Run(s, fns, Config{CrashAfter: map[platform.ProcID]int{
				platform.ProcID(p): k,
			}})
			if err != nil {
				t.Fatalf("P%d crash after %d replicas: %v", p, k, err)
			}
			checkOutputs(t, inst.Graph, rep)

			q := (p + 2) % m
			rep, err = Run(s, fns, Config{CrashAfter: map[platform.ProcID]int{
				platform.ProcID(p): k,
				platform.ProcID(q): 0,
			}})
			if err != nil {
				t.Fatalf("P%d crash after %d + P%d dead: %v", p, k, q, err)
			}
			checkOutputs(t, inst.Graph, rep)
		}
	}
}

// TestExecutorAgreesWithSimReplay cross-checks the two failure models the
// repository has: the concurrent executor (this package) and the
// deterministic replay engine the mission controller and /evaluate run on.
// For every crash-at-start subset up to ε+1 processors the two must agree
// on survivability, and within ε both must succeed — the shared oracle that
// lets mission replay stand in for real message-passing execution.
func TestExecutorAgreesWithSimReplay(t *testing.T) {
	inst := buildInstance(t, 10, 5)
	const m, eps = 5, 1
	s, err := sched.Run("ftsa", inst.Graph, inst.Platform, inst.Costs, sched.RunOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	fns := sumTasks(inst.Graph)
	var subsets [][]int
	for a := 0; a < m; a++ {
		subsets = append(subsets, []int{a})
		for b := a + 1; b < m; b++ {
			subsets = append(subsets, []int{a, b})
		}
	}
	for _, procs := range subsets {
		crash := make(map[platform.ProcID]int, len(procs))
		sc := sim.NoFailures(m)
		for _, p := range procs {
			crash[platform.ProcID(p)] = 0
			sc.CrashTime[p] = 0 // dead from the start in both models
		}
		rep, execErr := Run(s, fns, Config{CrashAfter: crash})
		if execErr != nil && !errors.Is(execErr, ErrIncomplete) {
			t.Fatalf("crash %v: %v", procs, execErr)
		}
		_, _, simOK, err := sim.ReplayTaskFinishes(s, sc, sim.Options{}, nil)
		if err != nil {
			t.Fatalf("replay %v: %v", procs, err)
		}
		execOK := execErr == nil
		if execOK != simOK {
			t.Fatalf("crash %v: executor ok=%v, replay ok=%v — the models disagree", procs, execOK, simOK)
		}
		if len(procs) <= eps && !execOK {
			t.Fatalf("crash %v within ε=%d not tolerated", procs, eps)
		}
		if execOK {
			checkOutputs(t, inst.Graph, rep)
		}
	}
}
