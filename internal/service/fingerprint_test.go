package service

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// testInstance builds a small deterministic diamond instance.
func testInstance(t *testing.T, name string) (*dag.Graph, *platform.Platform, *platform.CostModel) {
	t.Helper()
	g := dag.NewWithTasks(name, 4)
	for _, e := range []struct {
		src, dst dag.TaskID
		vol      float64
	}{{0, 1, 1}, {0, 2, 2}, {1, 3, 1}, {2, 3, 0.5}} {
		if err := g.AddEdge(e.src, e.dst, e.vol); err != nil {
			t.Fatal(err)
		}
	}
	p, err := uniformPlatform(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cm, err := platform.NewRandomCostModel(rng, 4, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, p, cm
}

func testRequest(t *testing.T) *ScheduleRequest {
	t.Helper()
	g, p, cm := testInstance(t, "diamond")
	return &ScheduleRequest{Instance: Instance{Graph: g, Platform: p, Costs: cm}, Scheduler: "ftsa", Epsilon: 1}
}

func TestRequestFingerprintDeterministic(t *testing.T) {
	a, b := testRequest(t), testRequest(t)
	if RequestFingerprint(a) != RequestFingerprint(b) {
		t.Fatal("identical requests produced different fingerprints")
	}
}

func TestRequestFingerprintSensitivity(t *testing.T) {
	base := RequestFingerprint(testRequest(t))
	mutations := map[string]func(*ScheduleRequest){
		"epsilon":          func(r *ScheduleRequest) { r.Epsilon = 2 },
		"scheduler":        func(r *ScheduleRequest) { r.Scheduler = "ftbar" },
		"seed":             func(r *ScheduleRequest) { r.Seed = 99 },
		"lambda":           func(r *ScheduleRequest) { r.Lambda = 0.01 },
		"include_gantt":    func(r *ScheduleRequest) { r.IncludeGantt = true },
		"include_schedule": func(r *ScheduleRequest) { r.IncludeSchedule = true },
		"policy":           func(r *ScheduleRequest) { r.Scheduler = "mcftsa"; r.Policy = "bottleneck" },
		"edge volume": func(r *ScheduleRequest) {
			g := dag.NewWithTasks("diamond", 4)
			for _, e := range []struct {
				src, dst dag.TaskID
				vol      float64
			}{{0, 1, 1.0001}, {0, 2, 2}, {1, 3, 1}, {2, 3, 0.5}} {
				if err := g.AddEdge(e.src, e.dst, e.vol); err != nil {
					t.Fatal(err)
				}
			}
			r.Graph = g
		},
		"cost entry": func(r *ScheduleRequest) {
			rows := make([][]float64, r.Costs.NumTasks())
			for tsk := range rows {
				for k := range r.Costs.NumProcs() {
					rows[tsk] = append(rows[tsk], r.Costs.Cost(dag.TaskID(tsk), platform.ProcID(k)))
				}
			}
			rows[0][0] = 17
			cm, err := platform.NewCostModelFromMatrix(rows)
			if err != nil {
				t.Fatal(err)
			}
			r.Costs = cm
		},
	}
	for name, mutate := range mutations {
		req := testRequest(t)
		mutate(req)
		if RequestFingerprint(req) == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// The scheduler name is matched case-insensitively by the API, so case must
// not split the cache.
func TestRequestFingerprintSchedulerCase(t *testing.T) {
	a, b := testRequest(t), testRequest(t)
	b.Scheduler = "FTSA"
	if RequestFingerprint(a) != RequestFingerprint(b) {
		t.Fatal("scheduler name case changed the fingerprint")
	}
}

// Equivalent spellings must share one cache entry: MC-FTSA's implicit
// default policy equals the explicit "greedy", and HEFT never consumes the
// seed.
func TestRequestFingerprintCanonicalization(t *testing.T) {
	a, b := testRequest(t), testRequest(t)
	a.Scheduler, b.Scheduler = "mcftsa", "mcftsa"
	b.Policy = "greedy"
	if RequestFingerprint(a) != RequestFingerprint(b) {
		t.Fatal("omitted policy and explicit greedy got different fingerprints")
	}
	c, d := testRequest(t), testRequest(t)
	c.Scheduler, d.Scheduler = "heft", "heft"
	c.Epsilon, d.Epsilon = 0, 0
	d.Seed = 123
	if RequestFingerprint(c) != RequestFingerprint(d) {
		t.Fatal("heft requests differing only in the unused seed got different fingerprints")
	}
}

// The graph's display name affects no response field, so renaming an
// instance must hit the same cache entries.
func TestRequestFingerprintIgnoresName(t *testing.T) {
	a, b := testRequest(t), testRequest(t)
	b.Graph, _, _ = testInstance(t, "beta")
	if RequestFingerprint(a) != RequestFingerprint(b) {
		t.Fatal("graph name changed the request fingerprint")
	}
}

// TestRequestFingerprintGolden pins the canonical encoding itself: these are
// the digests a sorted copy of every successor list and one hash write per
// field produced (commit cbc29aa), so a cache key computed before the walk
// stopped copying and the writes were batched still names the same instance.
func TestRequestFingerprintGolden(t *testing.T) {
	for name, tc := range map[string]struct {
		req  *ScheduleRequest
		want string
	}{
		"diamond": {testRequest(t), "bdd02de173f99d560838c9c1c6a906d7"},
		"paper":   {benchRequest(t), "c8dbe291c62e4d6ed6bf7bc79fffff3a"},
	} {
		if got := fmt.Sprintf("%x", RequestFingerprint(tc.req)); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, tc.want)
		}
	}
}

// TestRequestFingerprintIgnoresEdgeOrder: an instance is its edge set, not
// the order a client listed it in. Any insertion order of the same edges —
// every successor run of the paper-sized graph shuffled — fingerprints alike.
func TestRequestFingerprintIgnoresEdgeOrder(t *testing.T) {
	base := benchRequest(t)
	want := RequestFingerprint(base)
	edges := base.Graph.Edges()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		g := dag.NewWithTasks("shuffled", base.Graph.NumTasks())
		for _, e := range edges {
			g.MustAddEdge(e.Src, e.Dst, e.Volume)
		}
		req := *base
		req.Graph = g
		if got := RequestFingerprint(&req); got != want {
			t.Fatalf("trial %d: edge insertion order changed the fingerprint: %x, want %x", trial, got, want)
		}
	}
	// The order is all that is ignored: moving one volume to another edge of
	// the same task is a different instance.
	g := dag.NewWithTasks("swapped", base.Graph.NumTasks())
	swapped := false
	for i, e := range edges {
		if !swapped && i+1 < len(edges) && edges[i+1].Src == e.Src && edges[i+1].Volume != e.Volume {
			edges[i].Volume, edges[i+1].Volume = edges[i+1].Volume, e.Volume
			swapped = true
		}
		g.MustAddEdge(edges[i].Src, edges[i].Dst, edges[i].Volume)
	}
	req := *base
	req.Graph = g
	if !swapped || RequestFingerprint(&req) == want {
		t.Fatalf("swapping two volumes of one task (done: %v) left the fingerprint alone", swapped)
	}
}

var sinkFingerprint Fingerprint

// BenchmarkRequestFingerprint digests a decoded paper-sized request, the
// work between decode and cache lookup on every request the front index does
// not answer.
func BenchmarkRequestFingerprint(b *testing.B) {
	req := benchRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFingerprint = RequestFingerprint(req)
	}
}

// uniformPlatform is m processors with unit delay d between every two of
// them.
func uniformPlatform(m int, d float64) (*platform.Platform, error) {
	delay := make([][]float64, m)
	for k := range delay {
		delay[k] = make([]float64, m)
		for h := range delay[k] {
			if h != k {
				delay[k][h] = d
			}
		}
	}
	return platform.NewFromDelays(delay)
}

// TestFNV128MatchesStdlib holds the value-typed FNV-1a to hash/fnv's, on
// every length up to 1 KiB and on an instance-sized input, written whole and
// in uneven pieces.
func TestFNV128MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 27<<10)
	rng.Read(data)
	check := func(p []byte) {
		t.Helper()
		want := fnv.New128a()
		want.Write(p)
		whole, pieces := newFNV128a(), newFNV128a()
		whole.write(p)
		for rest := p; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(600))
			pieces.write(rest[:n])
			rest = rest[n:]
		}
		if got := whole.sum(); !bytes.Equal(got[:], want.Sum(nil)) {
			t.Fatalf("%d bytes: %x, hash/fnv %x", len(p), got, want.Sum(nil))
		}
		if pieces != whole {
			t.Fatalf("%d bytes: written in pieces, the state differs", len(p))
		}
	}
	for n := 0; n <= 1024; n++ {
		check(data[:n])
	}
	check(data)
}
