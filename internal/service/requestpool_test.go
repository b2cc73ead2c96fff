package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/lazyrand"
	"ftsched/internal/platform"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// TestDecodeIntoMatchesDecode pins the pooled decoder to the plain one: the
// same request struct is reused across every body, and each body must be
// accepted or rejected exactly as DecodeScheduleRequest does — in particular,
// a body missing a field must not inherit that field from the previous decode.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	valid, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(map[string]any)) string {
		var b map[string]any
		if err := json.Unmarshal(valid, &b); err != nil {
			t.Fatal(err)
		}
		f(b)
		s, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return string(s)
	}
	bodies := []string{
		string(valid),
		"{",
		string(valid) + "{}",
		mutate(func(b map[string]any) { b["epsilom"] = 3 }),
		mutate(func(b map[string]any) { delete(b, "graph") }),
		mutate(func(b map[string]any) { b["graph"] = nil }),
		mutate(func(b map[string]any) { delete(b, "platform") }),
		mutate(func(b map[string]any) { b["platform"] = nil }),
		mutate(func(b map[string]any) { delete(b, "costs") }),
		mutate(func(b map[string]any) { delete(b, "scheduler") }),
		mutate(func(b map[string]any) { b["scheduler"] = "slurm" }),
		mutate(func(b map[string]any) { b["epsilon"] = -1 }),
		string(valid), // valid again after a parade of rejects
	}
	// Omitted and null pieces must read as zero values, not as what the
	// previous payload left in the recycled storage at the same index.
	respell := func(old, new string) string {
		if !strings.Contains(string(valid), old) {
			t.Fatalf("test body no longer contains %q", old)
		}
		return strings.Replace(string(valid), old, new, 1)
	}
	for _, body := range []string{
		respell(`{"src":1,"dst":3,"volume":1}`, `{"dst":3,"volume":1}`),
		respell(`{"src":1,"dst":3,"volume":1}`, `null`),
		respell(`[0.5,0,0.5]`, `[null,0,0.5]`),
		respell(`"delay":[[0,0.5,0.5],`, `"delay":[null,`),
		respell(`"cost":[[`, `"cost":[[null,`),
		respell(`"cost":[[`, `"cost":[null,[`),
	} {
		bodies = append(bodies, body, string(valid))
	}
	req := AcquireScheduleRequest()
	defer ReleaseScheduleRequest(req)
	for i, body := range bodies {
		want, wantErr := DecodeScheduleRequest(strings.NewReader(body))
		gotErr := DecodeScheduleRequestInto(req, strings.NewReader(body))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("body %d: fresh decode err %v, pooled decode err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("body %d: fresh error %q, pooled error %q", i, wantErr, gotErr)
			}
			continue
		}
		if RequestFingerprint(req) != RequestFingerprint(want) {
			t.Fatalf("body %d: pooled decode changed the request fingerprint", i)
		}
	}
}

// TestReleaseScheduleRequestZeroes guards the pool against state leaks: a
// released and reacquired request must look factory-fresh.
func TestReleaseScheduleRequestZeroes(t *testing.T) {
	req := AcquireScheduleRequest()
	data, err := json.Marshal(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeScheduleRequestInto(req, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	ReleaseScheduleRequest(req)
	req2 := AcquireScheduleRequest()
	defer ReleaseScheduleRequest(req2)
	if req2.Scheduler != "" || req2.Epsilon != 0 || req2.Policy != "" || req2.Seed != 0 ||
		req2.Lambda != 0 || req2.IncludeGantt || req2.IncludeSchedule {
		t.Fatalf("reacquired request carries scalar state: %+v", req2)
	}
	if req2.Graph == nil || req2.Platform == nil || req2.Costs == nil {
		t.Fatal("reacquired request missing payload storage")
	}
}

// TestPooledReuseAcrossSizes drives one pooled request through a big body, a
// small one with a null matrix row and a null entry, and the big one again:
// whatever the recycled arena and matrix blocks held, every decode equals a
// decode into fresh storage. That includes bodies whose platform or costs
// carry no matrix at all: right after the big body they are refused, not
// served the big body's matrix.
func TestPooledReuseAcrossSizes(t *testing.T) {
	big := benchBody(t)
	var parts map[string]json.RawMessage
	if err := json.Unmarshal(big, &parts); err != nil {
		t.Fatal(err)
	}
	bigWith := func(platform, costs string) string {
		return fmt.Sprintf(`{"graph":%s,"platform":%s,"costs":%s,"scheduler":"ftsa","epsilon":1}`, parts["graph"], platform, costs)
	}
	noDelay := bigWith(fmt.Sprintf(`{"procs":%d}`, benchRequest(t).Platform.NumProcs()), string(parts["costs"]))
	noCost := bigWith(string(parts["platform"]), `{}`)
	small := `{"graph":{"name":"s","tasks":3,"edges":[{"src":0,"dst":2,"volume":1},null]},` +
		`"platform":{"procs":2,"delay":[[null,1],[1,0]]},"costs":{"cost":[[1,2],null,[1,1]]},"scheduler":"ftsa","epsilon":1}`
	nullEntry := strings.Replace(strings.Replace(small, `},null]`, `}]`, 1), `[[1,2],null,`, `[[1,2],[null,3],`, 1)
	req := AcquireScheduleRequest()
	defer ReleaseScheduleRequest(req)
	for i, body := range []string{string(big), small, string(big), nullEntry, string(big), "{", string(big), noDelay, string(big), noCost, string(big)} {
		want, wantErr := DecodeScheduleRequest(strings.NewReader(body))
		gotErr := DecodeScheduleRequestInto(req, strings.NewReader(body))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %d: pooled decode error %v, fresh decode error %v", i, gotErr, wantErr)
		}
		if (body == noDelay || body == noCost) && wantErr == nil {
			t.Fatalf("body %d: a request without a matrix was accepted", i)
		}
		if wantErr != nil {
			if i == 1 && !strings.Contains(wantErr.Error(), "self loop") {
				t.Fatalf("body %d: a null edge must read as the zero edge, got %v", i, wantErr)
			}
			if req.Graph == nil || req.Platform == nil || req.Costs == nil {
				t.Fatalf("body %d: a refused body took the pooled storage with it", i)
			}
			continue
		}
		if RequestFingerprint(req) != RequestFingerprint(want) {
			t.Fatalf("body %d: pooled decode changed the request fingerprint", i)
		}
		if err := sameInstance(req, want); err != nil {
			t.Fatalf("body %d: pooled decode differs from a fresh one: %v", i, err)
		}
	}
}

// benchBody builds a paper-sized request body once for the decode benchmarks.
func benchBody(b testing.TB) []byte {
	b.Helper()
	data, err := json.Marshal(benchRequest(b))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchRequest(b testing.TB) *ScheduleRequest { return benchRequestFrom(b, 5) }

// benchRequestFrom is benchRequest on the paper-sized instance seed draws.
func benchRequestFrom(b testing.TB, seed int64) *ScheduleRequest {
	b.Helper()
	inst, err := workload.NewInstance(rand.New(rand.NewSource(seed)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		b.Fatal(err)
	}
	return &ScheduleRequest{
		Instance:  Instance{Graph: inst.Graph, Platform: inst.Platform, Costs: inst.Costs},
		Scheduler: "ftsa", Epsilon: 1,
	}
}

// BenchmarkDecodeSchedule contrasts a decode into new storage (fresh:
// DecodeScheduleRequest keeps the storage with the request, so every body
// gets storage of its own) with the pooled warm path the handlers and the
// coordinator door use: a full decode into recycled storage (two instances
// in turn, so that neither repeats the last), a repeated instance, whose
// members are taken from storage undecoded, and a rotating corpus, whose
// instances each find their own storage in the pools.
func BenchmarkDecodeSchedule(b *testing.B) {
	body := benchBody(b)
	other, err := json.Marshal(benchRequestFrom(b, 6))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeScheduleRequest(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	})
	pooled := func(bodies ...[]byte) func(*testing.B) {
		return func(b *testing.B) {
			req := AcquireScheduleRequest()
			defer ReleaseScheduleRequest(req)
			for _, body := range bodies { // grow the storage to the larger instance
				if err := DecodeScheduleRequestInto(req, bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeScheduleRequestInto(req, bytes.NewReader(bodies[i%len(bodies)])); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("pooled", pooled(body, other))
	b.Run("pooled-repeat", pooled(body))
	// pooled-rotating is the handlers' path under a corpus: 32 instances in
	// turn, each decoded into storage from the pools, its graph frozen as a
	// scheduler would, and released. Every instance has a slot of its own,
	// so after two warm rounds (a first sighting, then the repeat that takes
	// a slot) no decode is a full one and no frozen view is rebuilt,
	// whatever the hash seed; full-decodes/op counts those that were.
	b.Run("pooled-rotating", func(b *testing.B) {
		bodies := make([][]byte, 32)
		for i := range bodies {
			bodies[i] = marshalJSON(b, benchRequestFrom(b, int64(100+i)))
		}
		views := make([]*dag.Flat, len(bodies))
		full := 0
		decode := func(i int) {
			req, err := decodeRequest[ScheduleRequest](bodies[i])
			if err != nil {
				b.Fatal(err)
			}
			defer req.release()
			view, err := req.Graph.Freeze()
			if err != nil {
				b.Fatal(err)
			}
			if view != views[i] {
				views[i] = view
				full++
			}
		}
		for range 2 {
			for i := range bodies {
				decode(i)
			}
		}
		full = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode(i % len(bodies))
		}
		b.ReportMetric(float64(full)/float64(b.N), "full-decodes/op")
	})
}

// BenchmarkDecodeEvaluate and BenchmarkDecodeTune decode benchBody's
// instance through the exported decoders, which keep the pooled storage with
// the request they return: every decode is a full one, into new storage.
func BenchmarkDecodeEvaluate(b *testing.B) {
	body := marshalJSON(b, benchEvaluateRequest(b))
	benchDecode(b, func() error { _, err := DecodeEvaluateRequest(bytes.NewReader(body)); return err })
}

func BenchmarkDecodeTune(b *testing.B) {
	body := marshalJSON(b, benchTuneRequest(b))
	benchDecode(b, func() error { _, err := DecodeTuneRequest(bytes.NewReader(body)); return err })
}

func benchEvaluateRequest(b testing.TB) *EvaluateRequest {
	return &EvaluateRequest{ScheduleRequest: *benchRequest(b),
		Trials: 50, Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1}, EvalSeed: 7}
}

func benchTuneRequest(b testing.TB) *TuneRequest {
	return &TuneRequest{Instance: benchRequest(b).Instance,
		Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1}, Trials: 40, Target: 0.9, EvalSeed: 7}
}

func benchDecode(b *testing.B, decode func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRepeat is DecodeSchedule/pooled-repeat for the other four
// endpoints: one paper-sized body decoded again and again through its
// Endpoint.Decode and Release, so that every decode after the first takes
// the instance from the storage the last one gave back.
func BenchmarkDecodeRepeat(b *testing.B) {
	inst := benchRequest(b)
	for _, row := range []struct {
		name, path string
		req        any
	}{
		{"evaluate", "/evaluate", benchEvaluateRequest(b)},
		{"tune", "/tune", benchTuneRequest(b)},
		{"batch", "/schedule/batch", &BatchRequest{Instance: inst.Instance,
			Requests: []BatchItem{{Scheduler: "ftsa", Epsilon: 1}, {Scheduler: "heft"}}}},
		{"missions", "/missions", &MissionRequest{ScheduleRequest: *inst,
			Scenario: sim.ScenarioSpec{Kind: "uniform", Crashes: 1}, ScenarioSeed: 5}},
	} {
		body := marshalJSON(b, row.req)
		ep := endpointAt(b, row.path)
		b.Run(row.name, func(b *testing.B) {
			benchDecode(b, func() error {
				d, err := ep.Decode(body)
				if err == nil {
					d.Release()
				}
				return err
			})
		})
	}
}

// endpointAt returns the POST endpoint mounted at path.
func endpointAt(t testing.TB, path string) *Endpoint {
	t.Helper()
	for _, ep := range endpoints {
		if ep.path == path {
			return ep
		}
	}
	t.Fatalf("no endpoint at %s", path)
	return nil
}

// TestRepeatedMembersSkipped: a pooled request decoding a body whose
// instance members repeat, byte for byte, what its storage was decoded from
// takes them as they are — the graph's frozen view survives, which a decode
// would have dropped — and still fingerprints like a fresh decode. A body
// with one edge volume changed is decoded again.
func TestRepeatedMembersSkipped(t *testing.T) {
	body := benchBody(t)
	req := AcquireScheduleRequest()
	defer ReleaseScheduleRequest(req)
	if err := DecodeScheduleRequestInto(req, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	flat, err := req.Graph.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	head := bytes.TrimSuffix(body, []byte("}"))
	for i, b := range [][]byte{body, fmt.Appendf(nil, `%s,"seed":7}`, head), fmt.Appendf(nil, `%s,"scheduler":"heft","epsilon":0}`, head)} {
		if err := DecodeScheduleRequestInto(req, bytes.NewReader(b)); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if again, _ := req.Graph.Freeze(); again != flat {
			t.Fatalf("body %d: a repeated graph was decoded again", i)
		}
		want, err := decodeFresh[ScheduleRequest](b)
		if err != nil {
			t.Fatal(err)
		}
		if RequestFingerprint(req) != RequestFingerprint(want) {
			t.Fatalf("body %d: the resumed fingerprint differs from a fresh one", i)
		}
	}
	changed := bytes.Replace(body, []byte(`"volume":`), []byte(`"volume":1`), 1)
	if err := DecodeScheduleRequestInto(req, bytes.NewReader(changed)); err != nil {
		t.Fatal(err)
	}
	if again, _ := req.Graph.Freeze(); again == flat {
		t.Fatal("a changed graph was taken from storage")
	}
	want, err := decodeFresh[ScheduleRequest](changed)
	if err != nil {
		t.Fatal(err)
	}
	if RequestFingerprint(req) != RequestFingerprint(want) {
		t.Fatal("a changed graph kept the old fingerprint")
	}
	// A body past maxPooledBody is decoded, and nothing of it remembered.
	padded := append(bytes.Clone(body), bytes.Repeat([]byte{' '}, maxPooledBody)...)
	if err := DecodeScheduleRequestInto(req, bytes.NewReader(padded)); err != nil {
		t.Fatal(err)
	}
	for i, k := range req.memo.members {
		if k.obj != nil || len(k.src) != 0 {
			t.Fatalf("member %d of an oversized body was remembered", i)
		}
	}
}

// TestInstanceSharedAcrossEndpoints: the storage a /schedule body left is
// what an /evaluate body of the same instance takes, as it stands — the
// graph's frozen view survives — and the evaluate request still
// fingerprints like a decode into a zero request.
func TestInstanceSharedAcrossEndpoints(t *testing.T) {
	var on Instance
	defer on.release()
	sr, err := decodeOn[ScheduleRequest](&on, benchBody(t))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sr.Graph.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	body := marshalJSON(t, benchEvaluateRequest(t))
	er, err := decodeOn[EvaluateRequest](&on, body)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := er.Graph.Freeze(); again != flat {
		t.Fatal("an /evaluate body decoded again the graph a /schedule body left")
	}
	want, err := decodeFresh[EvaluateRequest](body)
	if err != nil {
		t.Fatal(err)
	}
	if EvaluateFingerprint(er) != EvaluateFingerprint(want) {
		t.Fatal("the resumed /evaluate fingerprint differs from a fresh one")
	}
}

// TestSkippedInstanceUnchangedBySchedulers runs every registered scheduler
// on one instance under three seeds through one server, so that every
// request after the first takes the instance its predecessors were given
// from pooled storage, then an /evaluate per scheduler and a /tune on the
// same instance, which take it from the storage /schedule left. Each
// response must be byte-identical to what a fresh server computes from a
// decode into a zero request: no scheduler, replay or tuning run mutates
// its instance, and the storage the endpoints share carries nothing over.
func TestSkippedInstanceUnchangedBySchedulers(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	fresh := New(Config{})
	t.Cleanup(fresh.Close)
	check := func(path, what string, req any, want func([]byte) ([]byte, error)) {
		t.Helper()
		body := marshalJSON(t, req)
		rec := doServer(srv, http.MethodPost, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, what, rec.Code, rec.Body.String())
		}
		wantBody, err := want(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantBody) {
			t.Fatalf("%s %s: the response differs from a fresh server's", path, what)
		}
	}
	for _, name := range sched.Names() {
		info, _ := sched.LookupInfo(name)
		for seed := int64(1); seed <= 3; seed++ {
			req := benchRequest(t)
			req.Scheduler, req.Seed, req.IncludeGantt, req.IncludeSchedule = name, seed, true, true
			if !info.FaultTolerant {
				req.Epsilon = 0
			}
			check("/schedule", fmt.Sprintf("%s seed %d", name, seed), req, func(body []byte) ([]byte, error) {
				decoded, err := decodeFresh[ScheduleRequest](body)
				if err != nil {
					return nil, err
				}
				return fresh.schedule(decoded)
			})
		}
	}
	for _, name := range sched.Names() {
		req := benchEvaluateRequest(t)
		req.Scheduler, req.Trials = name, 20
		if info, _ := sched.LookupInfo(name); !info.FaultTolerant {
			req.Epsilon = 0
		}
		check("/evaluate", name, req, func(body []byte) ([]byte, error) {
			decoded, err := decodeFresh[EvaluateRequest](body)
			if err != nil {
				return nil, err
			}
			return fresh.evaluate(decoded)
		})
	}
	tr := benchTuneRequest(t)
	tr.Trials, tr.Epsilons = 16, []int{1}
	check("/tune", "eps 1", tr, func(body []byte) ([]byte, error) {
		decoded, err := decodeFresh[TuneRequest](body)
		if err != nil {
			return nil, err
		}
		return fresh.tuneFn(decoded)
	})
	// Three bodies decoded into one storage: the instance, then only its
	// costs changed, then only its platform. Each time the members that
	// repeat are taken from storage and the changed one is decoded, and
	// nothing the storage remembered of the instance before — fingerprint
	// state, bottom levels — may rank the new one.
	var on Instance
	defer on.release()
	req := benchRequest(t)
	req.Scheduler, req.Seed, req.IncludeGantt = "ftsa", 4, true
	for _, row := range []struct {
		what   string
		change func()
	}{
		{"instance", func() {}},
		{"costs changed", func() { req.Costs = skewedCosts(t, req.Costs) }},
		{"platform changed", func() { req.Platform = skewedPlatform(t, req.Platform) }},
	} {
		row.change()
		body := marshalJSON(t, req)
		pooled, err := decodeOn[ScheduleRequest](&on, body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.schedule(pooled)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decodeFresh[ScheduleRequest](body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.schedule(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("/schedule %s: the response differs from a fresh server's", row.what)
		}
	}
}

// skewedCosts returns cm with every task's costs scaled by 1, 2 or 3, so
// that the average costs rank the tasks differently.
func skewedCosts(t *testing.T, cm *platform.CostModel) *platform.CostModel {
	t.Helper()
	rows := make([][]float64, cm.NumTasks())
	for task := range rows {
		rows[task] = make([]float64, cm.NumProcs())
		for k := range rows[task] {
			rows[task][k] = cm.Cost(dag.TaskID(task), platform.ProcID(k)) * float64(1+task%3)
		}
	}
	out, err := platform.NewCostModelFromMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// skewedPlatform returns p with every delay tripled: the average
// communication cost, and with it every bottom level, changes.
func skewedPlatform(t *testing.T, p *platform.Platform) *platform.Platform {
	t.Helper()
	rows := make([][]float64, p.NumProcs())
	for k := range rows {
		rows[k] = make([]float64, p.NumProcs())
		for h := range rows[k] {
			rows[k][h] = 3 * p.Delay(platform.ProcID(k), platform.ProcID(h))
		}
	}
	out, err := platform.NewFromDelays(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRequestPoolRouting: a first sighting's request is looked for in, and
// goes back to, the spare pool, so that a stream of instances that never
// repeat recycles one request's storage the way a single pool would; from
// the second sighting on, the instance's own slot comes first and keeps the
// request. A refused body leaves nothing worth a slot.
func TestRequestPoolRouting(t *testing.T) {
	body := uniqueBody(t, benchBody(t), "routing")
	req := new(ScheduleRequest)
	defer ReleaseScheduleRequest(req)
	if err := decodeInto(req, body); err != nil {
		t.Fatal(err)
	}
	slot, spare := &instancePools[req.memo.slot].pool, &spareInstances
	if req.memo.repeats || req.memo.key != requestKey(body) {
		t.Fatal("a first sighting was routed as a repeat")
	}
	if got := poolsFor(req.memo.slot, false); got != [2]*sync.Pool{spare, slot} {
		t.Fatal("a first sighting is not looked for in the spare pool first")
	}
	if req.memo.home() != spare {
		t.Fatal("a first sighting's request does not go back to the spare pool")
	}
	if got := poolsFor(req.memo.slot, true); got != [2]*sync.Pool{slot, spare} {
		t.Fatal("a seen instance is not looked for in its slot first")
	}
	if err := decodeInto(req, body); err != nil {
		t.Fatal(err)
	}
	if !req.memo.repeats || &instancePools[req.memo.slot].pool != slot {
		t.Fatal("a repeated instance was not routed to the slot its first sighting took")
	}
	if req.memo.home() != slot {
		t.Fatal("a repeated instance's request does not go back to its slot")
	}
	if err := decodeInto(req, body[:len(body)-1]); err == nil {
		t.Fatal("a truncated body was accepted")
	}
	if req.memo.home() != spare {
		t.Fatal("a refused body's request goes back to a slot")
	}
}

// uniqueBody returns body with a graph name no other body, in this run or
// an earlier one, has used: its key is a first sighting.
func uniqueBody(t testing.TB, body []byte, what string) []byte {
	t.Helper()
	name := []byte(`"name":"`)
	at := bytes.Index(body, name) + len(name)
	if at < len(name) {
		t.Fatal("the body names no graph")
	}
	return slices.Concat(body[:at], fmt.Appendf(nil, "%s-%d-", what, rand.Int63()), body[at:])
}

// TestRequestPoolRoutingExact serves more distinct instances than 64, in
// turn, each body decoded and its storage released as a handler does. Every
// instance keeps a slot of its own, so after the repeat that gives it one it
// is never fully decoded again: the graph's frozen view survives every later
// decode. A collection or another processor would move storage out of reach
// of the pools, so the test runs on one processor with collection off; the
// race detector drops pooled items at random, so it does not run there.
func TestRequestPoolRoutingExact(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of pooled items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := marshalJSON(t, testRequest(t))
	bodies := make([][]byte, 65)
	for i := range bodies {
		bodies[i] = uniqueBody(t, base, fmt.Sprintf("exact-%d", i))
	}
	views := make([]*dag.Flat, len(bodies))
	for round := 0; round < 5; round++ {
		for i, body := range bodies {
			req, err := decodeRequest[ScheduleRequest](body)
			if err != nil {
				t.Fatal(err)
			}
			view, err := req.Graph.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if round >= 2 && view != views[i] {
				t.Fatalf("round %d: instance %d was decoded again", round, i)
			}
			views[i] = view
			req.release()
		}
	}
}

// TestRequestPoolSlotEviction: once requestPools later first sightings have
// taken every slot in turn, a key is no longer recent, and storage decoded
// for it while it held its slot goes back to the spare pool, not to the
// slot's new owner.
func TestRequestPoolSlotEviction(t *testing.T) {
	body := uniqueBody(t, benchBody(t), "eviction")
	req := new(ScheduleRequest)
	defer ReleaseScheduleRequest(req)
	for range 2 {
		if err := decodeInto(req, body); err != nil {
			t.Fatal(err)
		}
	}
	if req.memo.home() != &instancePools[req.memo.slot].pool {
		t.Fatal("a repeated instance's request does not go back to its slot")
	}
	tag := rand.Int63()
	for k := range requestPools {
		if _, seen := route(requestKey(fmt.Appendf(nil, "eviction-%d-%d", tag, k))); seen {
			t.Fatal("a new key was routed as a repeat")
		}
	}
	if req.memo.home() != &spareInstances {
		t.Fatal("storage whose key lost its slot goes back to the slot's new owner")
	}
	if _, seen := route(req.memo.key); seen {
		t.Fatal("a key whose slot was taken is still recent")
	}
}

// TestSeededSolvesMatchNewGenerator: solve takes its tie-breaking generator
// from a pool and reseeds it, so seeds s1, s2, s1 on one instance must each
// schedule as sched.Run does with a new lazyrand.New(seed). The instance is
// a fork-join of equal tasks on identical processors, so ties decide the
// mapping and the two seeds schedule differently.
func TestSeededSolvesMatchNewGenerator(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	const width, procs = 8, 4
	g := dag.NewWithTasks("fork-join", width+2)
	rows := make([][]float64, width+2)
	for i := range rows {
		rows[i] = slices.Repeat([]float64{1}, procs)
	}
	for i := 1; i <= width; i++ {
		g.MustAddEdge(0, dag.TaskID(i), 1)
		g.MustAddEdge(dag.TaskID(i), width+1, 1)
	}
	delays := make([][]float64, procs)
	for k := range delays {
		delays[k] = slices.Repeat([]float64{1}, procs)
		delays[k][k] = 0
	}
	p, err := platform.NewFromDelays(delays)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := platform.NewCostModelFromMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	var on Instance
	defer on.release()
	for _, name := range sched.Names() {
		if info, _ := sched.LookupInfo(name); info.IgnoresRng || !info.FaultTolerant {
			continue
		}
		got := map[int64][]byte{}
		for _, seed := range []int64{11, 12, 11} {
			body := marshalJSON(t, &ScheduleRequest{Instance: Instance{Graph: g, Platform: p, Costs: cm},
				Scheduler: name, Epsilon: 1, Seed: seed, IncludeSchedule: true})
			req, err := decodeOn[ScheduleRequest](&on, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.schedule(req)
			if err != nil {
				t.Fatal(err)
			}
			schedule, err := sched.Run(name, req.Graph, req.Platform, req.Costs, sched.RunOptions{Epsilon: 1, Rng: lazyrand.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			want, err := buildResponse(req, schedule)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp, want) {
				t.Fatalf("%s seed %d: the pooled generator scheduled differently from lazyrand.New", name, seed)
			}
			got[seed] = resp
		}
		if name == "ftsa" && bytes.Equal(got[11], got[12]) {
			t.Fatal("ftsa: seeds 11 and 12 schedule alike, so the instance tests no reseeding")
		}
	}
}

// TestBottomLevelsRemembered: storage that holds an instance computes its
// bottom levels once — a body repeating the instance gets the same slice —
// and a changed member makes it compute them again, equal to
// sched.AvgBottomLevels of the new instance.
func TestBottomLevelsRemembered(t *testing.T) {
	var on Instance
	defer on.release()
	req := benchRequest(t)
	levels := func() []float64 {
		t.Helper()
		decoded, err := decodeOn[ScheduleRequest](&on, marshalJSON(t, req))
		if err != nil {
			t.Fatal(err)
		}
		bl := decoded.bottomLevels()
		want, err := sched.AvgBottomLevels(decoded.Graph, decoded.Costs, decoded.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bl, want) {
			t.Fatal("the bottom levels differ from sched.AvgBottomLevels")
		}
		return bl
	}
	first := levels()
	req.Seed = 3
	if again := levels(); &again[0] != &first[0] {
		t.Fatal("a repeated instance computed its bottom levels again")
	}
	req.Costs = skewedCosts(t, req.Costs)
	if changed := levels(); &changed[0] == &first[0] {
		t.Fatal("changed costs kept the old bottom levels")
	}
}
