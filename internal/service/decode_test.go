package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/wire"
)

// The oracle of FuzzDecodeDifferential: the request decoders as they were
// before decodeBody — encoding/json by reflection, the five copies of
// NewDecoder → DisallowUnknownFields → Decode → More → Validate folded into
// oracleDecode — kept here so the single-pass decoder has something that
// shares no parsing code with it to agree with. The instance members decode
// through the oracle types below instead of Graph/Platform/CostModel, whose
// UnmarshalJSON are the new scanner.

// errOracleTooBig marks an instance the oracle declines to build; the fuzz
// target skips it rather than allocate by an attacker-chosen task count.
var errOracleTooBig = errors.New("oracle: instance too big")

type oracleGraph struct{ g *dag.Graph }

// UnmarshalJSON is the parent's dag.Graph.UnmarshalJSON with rebuild
// replaced by the public constructors, which enforce the same invariants.
func (o *oracleGraph) UnmarshalJSON(data []byte) error {
	var in struct {
		Name  string `json:"name"`
		Tasks int    `json:"tasks"`
		Edges []struct {
			Src    dag.TaskID `json:"src"`
			Dst    dag.TaskID `json:"dst"`
			Volume float64    `json:"volume"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	if in.Tasks < 0 {
		return fmt.Errorf("dag: negative task count %d", in.Tasks)
	}
	if in.Tasks > 1<<16 {
		return errOracleTooBig
	}
	g := dag.NewWithTasks(in.Name, in.Tasks)
	for _, e := range in.Edges {
		if err := g.AddEdge(e.Src, e.Dst, e.Volume); err != nil {
			return err
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	o.g = g
	return nil
}

type oraclePlatform struct{ p *platform.Platform }

func (o *oraclePlatform) UnmarshalJSON(data []byte) error {
	var in struct {
		Procs int         `json:"procs"`
		Delay [][]float64 `json:"delay"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("platform: decoding: %w", err)
	}
	p, err := platform.NewFromDelays(in.Delay)
	if err != nil {
		return err
	}
	if in.Procs != p.NumProcs() {
		return fmt.Errorf("%w: procs=%d", platform.ErrDimension, in.Procs)
	}
	o.p = p
	return nil
}

type oracleCosts struct{ cm *platform.CostModel }

func (o *oracleCosts) UnmarshalJSON(data []byte) error {
	var in struct {
		Cost [][]float64 `json:"cost"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("platform: decoding cost model: %w", err)
	}
	cm, err := platform.NewCostModelFromMatrix(in.Cost)
	if err != nil {
		return err
	}
	o.cm = cm
	return nil
}

// oracleInstance shadows the instance fields of the request struct it is
// embedded next to: it sits one level shallower, so encoding/json resolves
// "graph", "platform" and "costs" to it and everything else to the request.
type oracleInstance struct {
	Graph    *oracleGraph    `json:"graph"`
	Platform *oraclePlatform `json:"platform"`
	Costs    *oracleCosts    `json:"costs"`
}

// oracleDecode is the parent's decoder. wire is req wrapped with an
// oracleInstance; what that caught is moved into req before Validate.
func oracleDecode(body []byte, wire any, inst *oracleInstance, req request) (offset int64, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(wire); err != nil {
		return 0, fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return 0, fmt.Errorf("decoding request: unexpected data after the JSON body")
	}
	in := req.instance()
	if inst.Graph != nil {
		in.Graph = inst.Graph.g
	}
	if inst.Platform != nil {
		in.Platform = inst.Platform.p
	}
	if inst.Costs != nil {
		in.Costs = inst.Costs.cm
	}
	return dec.InputOffset(), req.Validate()
}

// decodeFresh decodes body into a zero request of type T: storage of its
// own and nothing remembered, the reference every pooled decode is held to.
func decodeFresh[T any, P requestPtr[T]](body []byte) (P, error) {
	req := P(new(T))
	if err := decodeBody(body, req); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeOn decodes body into a new request of type T on the pooled instance
// storage *on holds, or on storage from the pools when it holds none
// (decodeInto), and leaves *on holding that storage for the next decode.
func decodeOn[T any, P requestPtr[T]](on *Instance, body []byte) (P, error) {
	req := P(new(T))
	*req.instance() = *on
	err := decodeInto(req, body)
	*on = *req.instance()
	if err != nil {
		return nil, err
	}
	return req, nil
}

// differentialCase is one request type under FuzzDecodeDifferential.
type differentialCase struct {
	name string
	// decode is the decode into a zero request, pooled a decode on the
	// storage its first argument holds (decodeOn).
	decode func(body []byte) (request, error)
	pooled func(on *Instance, body []byte) (request, error)
	oracle func(body []byte) (request, int64, error)
	// fingerprints are the cache keys the request produces; params is
	// everything in it but the instance, in a form reflect.DeepEqual can
	// compare.
	fingerprints func(request) []Fingerprint
	params       func(request) any
}

var differentialCases = []differentialCase{
	{
		name:   "schedule",
		decode: func(b []byte) (request, error) { return decodeFresh[ScheduleRequest](b) },
		pooled: func(on *Instance, b []byte) (request, error) { return decodeOn[ScheduleRequest](on, b) },
		oracle: func(b []byte) (request, int64, error) {
			var v struct {
				oracleInstance
				wrapSchedule
			}
			off, err := oracleDecode(b, &v, &v.oracleInstance, &v.ScheduleRequest)
			return &v.ScheduleRequest, off, err
		},
		fingerprints: func(r request) []Fingerprint { return []Fingerprint{RequestFingerprint(r.(*ScheduleRequest))} },
		params: func(r request) any {
			c := *r.(*ScheduleRequest)
			c.Instance = Instance{}
			return c
		},
	},
	{
		name:   "evaluate",
		decode: func(b []byte) (request, error) { return decodeFresh[EvaluateRequest](b) },
		pooled: func(on *Instance, b []byte) (request, error) { return decodeOn[EvaluateRequest](on, b) },
		oracle: func(b []byte) (request, int64, error) {
			var v struct {
				oracleInstance
				EvaluateRequest
			}
			off, err := oracleDecode(b, &v, &v.oracleInstance, &v.EvaluateRequest)
			return &v.EvaluateRequest, off, err
		},
		fingerprints: func(r request) []Fingerprint { return []Fingerprint{EvaluateFingerprint(r.(*EvaluateRequest))} },
		params: func(r request) any {
			c := *r.(*EvaluateRequest)
			c.Instance = Instance{}
			return c
		},
	},
	{
		name:   "tune",
		decode: func(b []byte) (request, error) { return decodeFresh[TuneRequest](b) },
		pooled: func(on *Instance, b []byte) (request, error) { return decodeOn[TuneRequest](on, b) },
		oracle: func(b []byte) (request, int64, error) {
			var v struct {
				oracleInstance
				wrapTune
			}
			off, err := oracleDecode(b, &v, &v.oracleInstance, &v.TuneRequest)
			return &v.TuneRequest, off, err
		},
		fingerprints: func(r request) []Fingerprint { return []Fingerprint{TuneFingerprint(r.(*TuneRequest))} },
		params: func(r request) any {
			c := *r.(*TuneRequest)
			c.Instance, c.cands = Instance{}, nil
			return c
		},
	},
	{
		name:   "batch",
		decode: func(b []byte) (request, error) { return decodeFresh[BatchRequest](b) },
		pooled: func(on *Instance, b []byte) (request, error) { return decodeOn[BatchRequest](on, b) },
		oracle: func(b []byte) (request, int64, error) {
			var v struct {
				oracleInstance
				wrapBatch
			}
			off, err := oracleDecode(b, &v, &v.oracleInstance, &v.BatchRequest)
			return &v.BatchRequest, off, err
		},
		fingerprints: func(r request) []Fingerprint {
			var fps []Fingerprint
			for _, it := range r.(*BatchRequest).Items() {
				fps = append(fps, RequestFingerprint(it))
			}
			return fps
		},
		params: func(r request) any { return r.(*BatchRequest).Requests },
	},
	{
		name:   "mission",
		decode: func(b []byte) (request, error) { return decodeFresh[MissionRequest](b) },
		pooled: func(on *Instance, b []byte) (request, error) { return decodeOn[MissionRequest](on, b) },
		oracle: func(b []byte) (request, int64, error) {
			var v struct {
				oracleInstance
				MissionRequest
			}
			off, err := oracleDecode(b, &v, &v.oracleInstance, &v.MissionRequest)
			return &v.MissionRequest, off, err
		},
		fingerprints: func(r request) []Fingerprint { return []Fingerprint{MissionFingerprint(r.(*MissionRequest))} },
		params: func(r request) any {
			c := *r.(*MissionRequest)
			c.Instance = Instance{}
			return c
		},
	},
}

// The wrap types push a request struct whose instance fields are its own
// (not an embedded ScheduleRequest's) one level down, below oracleInstance.
type (
	wrapSchedule struct{ ScheduleRequest }
	wrapTune     struct{ TuneRequest }
	wrapBatch    struct{ BatchRequest }
)

// sameInstance compares what the fingerprint does not cover: the graph's
// name and the order of every adjacency row.
func sameInstance(a, b request) error {
	ga, gb := a.instance().Graph, b.instance().Graph
	if ga.Name() != gb.Name() {
		return fmt.Errorf("graph name %q, oracle %q", ga.Name(), gb.Name())
	}
	if ga.NumTasks() != gb.NumTasks() || ga.NumEdges() != gb.NumEdges() {
		return fmt.Errorf("graph has %d tasks %d edges, oracle %d and %d",
			ga.NumTasks(), ga.NumEdges(), gb.NumTasks(), gb.NumEdges())
	}
	for t := dag.TaskID(0); int(t) < ga.NumTasks(); t++ {
		if !slices.Equal(ga.Succs(t), gb.Succs(t)) || !slices.Equal(ga.Preds(t), gb.Preds(t)) {
			return fmt.Errorf("adjacency of task %d: %v / %v, oracle %v / %v",
				t, ga.Succs(t), ga.Preds(t), gb.Succs(t), gb.Preds(t))
		}
	}
	return nil
}

// hasDuplicateKeys reports whether some object of a well-formed document
// names one member twice, as encoding/json matches names (case folded).
func hasDuplicateKeys(body []byte) bool {
	type frame struct {
		object  bool
		wantKey bool
		keys    []string
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				stack = append(stack, &frame{object: v == '{', wantKey: true})
				continue
			}
			if stack = stack[:len(stack)-1]; len(stack) > 0 {
				top = stack[len(stack)-1]
			} else {
				top = nil
			}
		case string:
			if top != nil && top.object && top.wantKey {
				for _, k := range top.keys {
					if strings.EqualFold(k, v) {
						return true
					}
				}
				top.keys = append(top.keys, v)
				top.wantKey = false
				continue
			}
		}
		if top != nil {
			top.wantKey = true // a member's value just ended
		}
	}
}

// differentialBodies are one well-formed body per request type; the seeds
// are these plus respellings of the "schedule" one.
var differentialBodies = func() map[string]string {
	const inst = `{"graph":{"name":"d","tasks":3,"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":2,"volume":0.5}]},` +
		`"platform":{"procs":2,"delay":[[0,1],[1,0]]},"costs":{"cost":[[1,2],[2,1],[1,1]]},`
	return map[string]string{
		"schedule": inst + `"scheduler":"ftsa","epsilon":1}`,
		"evaluate": inst + `"scheduler":"ftsa","epsilon":1,"trials":4,"scenario":{"kind":"uniform","crashes":1}}`,
		"tune":     inst + `"scenario":{"kind":"uniform","crashes":1},"trials":4,"target":0.9}`,
		"batch":    inst + `"requests":[{"scheduler":"ftsa","epsilon":1},{"scheduler":"heft"}]}`,
		"mission":  inst + `"scheduler":"ftsa","epsilon":1,"scenario":{"kind":"uniform","crashes":1},"scenario_seed":5}`,
	}
}()

func differentialSeeds() [][]byte {
	var seeds [][]byte
	for _, s := range fuzzSeedBodies[:differentialFirstSeeds] {
		seeds = append(seeds, []byte(s))
	}
	for _, s := range differentialBodies {
		seeds = append(seeds, []byte(s))
	}
	valid := differentialBodies["schedule"]
	respell := func(old, new string) {
		if !strings.Contains(valid, old) {
			panic("differential seed body no longer contains " + old)
		}
		seeds = append(seeds, []byte(strings.Replace(valid, old, new, 1)))
	}
	deep := strings.Repeat("[", 9999)
	deep += strings.Repeat("]", 9999)
	respell(`"graph"`, `"GRAPH"`)
	respell(`"tasks"`, `"Tasks"`)
	respell(`"src"`, `"ſrc"`)
	respell(`"src"`, `"\u017frc"`)
	respell(`"dst"`, `"\u0064st"`)
	respell(`"costs"`, `"COSTS"`)
	respell(`"cost"`, `"Cost"`)
	respell(`"epsilon"`, `"Epsilon"`)
	respell(`"tasks":3`, `"tasks":3,"meta":{"a":[{"b":null}]}`)
	respell(`"procs":2`, `"procs":2,"meta":[[[1.5e3,"x\n"]]]`)
	respell(`"cost":[[`, `"unit":"s","cost":[[`)
	respell(`"tasks":3`, `"tasks":3.0`)
	respell(`"tasks":3`, `"tasks":3e0`)
	respell(`"tasks":3`, `"tasks":1e2`)
	respell(`"tasks":3`, `"tasks":"3"`)
	respell(`"tasks":3`, `"tasks":null`)
	respell(`"tasks":3`, `"tasks":-0`)
	respell(`"tasks":3`, `"tasks":9996999999`)
	respell(`"tasks":3`, `"tasks":9996999999}ph`)
	respell(`"src":0`, `"src":99999999999999999999`)
	respell(`"src":0`, `"src":9223372036854775807`)
	respell(`"src":0`, `"src":-1`)
	respell(`"volume":1`, `"volume":1e309`)
	respell(`"volume":1`, `"volume":-0`)
	respell(`"volume":1`, `"volume":-0.0`)
	respell(`"volume":1`, `"volume":1e-400`)
	respell(`"volume":1`, `"volume":-1e-400`)
	respell(`"volume":1`, `"volume":0.1234567890123456789012345678901234567890`)
	respell(`"volume":1`, `"volume":null`)
	respell(`"name":"d"`, `"name":"aé😀\n"`)
	respell(`"name":"d"`, `"name":"\ud800\u0000"`)
	respell(`"name":"d"`, "\"name\":\"a\xffb\"")
	respell(`"name":"d"`, `"name":null`)
	respell(`"name":"d"`, `"name":7`)
	respell(`"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":2,"volume":0.5}]`, `"edges":null`)
	respell(`"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":2,"volume":0.5}]`, `"edges":[]`)
	respell(`{"src":0,"dst":1,"volume":1}`, `null`)
	respell(`{"src":0,"dst":1,"volume":1}`, `{"dst":1}`)
	respell(`{"src":0,"dst":1,"volume":1}`, `{}`)
	respell(`{"src":0,"dst":1,"volume":1}`, `[0,1,1]`)
	respell(`[[0,1],[1,0]]`, `[null,[1,0]]`)
	respell(`[[0,1],[1,0]]`, `[[null,1],[1,null]]`)
	respell(`[[0,1],[1,0]]`, `null`)
	respell(`[[0,1],[1,0]]`, `[[0,1],[1,0],[]]`)
	respell(`[[0,1],[1,0]]`, `[[0,1],7]`)
	respell(`[[1,2],[2,1],[1,1]]`, `[null,[2,1],[1,1]]`)
	respell(`[[1,2],[2,1],[1,1]]`, `[[null,2],[2,1],[1,null]]`)
	respell(`[[1,2],[2,1],[1,1]]`, `[[1,2],[2,1],[1,-1]]`)
	respell(`"graph":{`, `"graph":null,"x":{`)
	respell(`"graph":{`, `"graph":n{`)
	respell(`"delay":[[0`, `"delay":[n[0`)
	respell(`"procs":2`, `"procs":n2`)
	respell(`"platform":{"procs":2,"delay":[[0,1],[1,0]]}`, `"platform":null`)
	respell(`"costs":{"cost":[[1,2],[2,1],[1,1]]}`, `"costs":7`)
	respell(`"platform":{"procs":2,"delay":[[0,1],[1,0]]}`, `"platform":{"procs":2}`)
	respell(`"costs":{"cost":[[1,2],[2,1],[1,1]]}`, `"costs":{}`)
	respell(`"tasks":3`, `"tasks":3,"deep":`+deep)
	respell(`"tasks":3`, `"tasks":3,"deep":[`+deep+`]`)
	respell(`"epsilon":1`, `"epsilon":1,"deep":`+deep)
	respell(`"epsilon":1`, `"epsilon":1.0`)
	respell(`"epsilon":1`, `"epsilon":1,"epsilom":2`)
	// The two licensed divergences, and their neighbours.
	respell(`"tasks":3`, `"tasks":2,"tasks":3`)
	respell(`"delay":[[0,1],[1,0]]`, `"delay":[[0,5],[5,0]],"delay":[[null,1],[1]]`)
	respell(`"edges":[`, `"edges":[{"src":2,"dst":0,"volume":9}],"edges":[`)
	respell(`"graph":{`, `"graph":{"tasks":1},"graph":{`)
	respell(`"platform":{`, `"platform":null,"platform":{`)
	for _, tail := range []string{"]", "}", " ]garbage", "x", "{}", " \n\t\r", ",", "\f", "\x00", "null"} {
		seeds = append(seeds, []byte(valid+tail))
	}
	for _, head := range []string{"\xef\xbb\xbf", "\f", " \n", " "} {
		seeds = append(seeds, []byte(head+valid))
	}
	seeds = append(seeds, []byte("null"), []byte(" null "), []byte("nul"), []byte("[]"), []byte("7"), []byte(`"x"`), []byte("{}"))
	for _, s := range fuzzSeedBodies[differentialFirstSeeds:] {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// differentialFirstSeeds is how many fuzzSeedBodies open differentialSeeds;
// the ones appended since close it, so each seed#N keeps its body.
const differentialFirstSeeds = 21

// FuzzDecodeDifferential holds decodeBody to the decoders it replaced: for
// every body and every request type, the same accept or reject and, when
// accepted, the same cache keys, parameters, graph name and adjacency order.
// Two divergences are licensed, both documented in docs/API.md: a body
// followed by ']' or '}' (the parent's trailing-data check missed it) is
// refused, and a body with a duplicate key may decode differently. A third
// changes a message, never an outcome: a task count the body has no room to
// back with cost rows is refused before rebuild allocates by it, where the
// parent allocated first and then refused the cost matrix's row count (or ran
// out of memory) — the comparison ignores refusal texts, and the oracle skips
// such bodies above 65 536 tasks (TestHugeTaskCountRefused pins them). And for
// every body and every request type, a decode into pooled storage another
// body warmed equals the decode into a zero request.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range differentialSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, c := range differentialCases {
			want, offset, wantErr := c.oracle(body)
			if errors.Is(wantErr, errOracleTooBig) {
				t.Skip()
			}
			got, gotErr := c.decode(body)
			mismatch := ""
			switch {
			case (wantErr == nil) != (gotErr == nil):
				mismatch = fmt.Sprintf("decodeBody: %v, oracle: %v", gotErr, wantErr)
				if rest := bytes.TrimLeft(body[offset:], " \t\r\n"); wantErr == nil && len(rest) > 0 &&
					(rest[0] == ']' || rest[0] == '}') && strings.Contains(gotErr.Error(), "unexpected data after the JSON body") {
					continue
				}
			case wantErr != nil:
				continue
			case !reflect.DeepEqual(c.fingerprints(got), c.fingerprints(want)):
				mismatch = "fingerprints differ"
			case !reflect.DeepEqual(c.params(got), c.params(want)):
				mismatch = fmt.Sprintf("parameters %+v, oracle %+v", c.params(got), c.params(want))
			default:
				if err := sameInstance(got, want); err != nil {
					mismatch = err.Error()
				}
			}
			if mismatch != "" && !hasDuplicateKeys(body) {
				t.Fatalf("%s: %s\nbody: %q", c.name, mismatch, body)
			}
		}
		for _, c := range differentialCases {
			var on Instance
			if _, err := c.pooled(&on, []byte(differentialBodies[c.name])); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			samePooled(t, c, &on, body)
			// Warm with the body itself, so its instance members are what the
			// storage remembers, then decode it again, with one byte of a
			// member changed and with its members reordered: a decode that
			// skips a member must still read exactly what a fresh one reads.
			_, _ = c.pooled(&on, body)
			samePooled(t, c, &on, body)
			if changed := changeMemberByte(body); changed != nil {
				samePooled(t, c, &on, changed)
			}
			if reordered := reorderMembers(body); reordered != nil {
				samePooled(t, c, &on, reordered)
			}
			on.release()
		}
	})
}

// samePooled decodes body as c's request type on the warm storage on holds
// and checks it against a decode into a zero request: the same error text
// or, on success, the same cache keys, parameters and instance.
func samePooled(t *testing.T, c differentialCase, on *Instance, body []byte) {
	t.Helper()
	fresh, freshErr := c.decode(body)
	pooled, pooledErr := c.pooled(on, body)
	if fmt.Sprint(pooledErr) != fmt.Sprint(freshErr) {
		t.Fatalf("%s: warm pooled decode: %v, fresh: %v\nbody: %q", c.name, pooledErr, freshErr, body)
	}
	if freshErr != nil {
		return
	}
	if !reflect.DeepEqual(c.fingerprints(pooled), c.fingerprints(fresh)) {
		t.Fatalf("%s: warm pooled decode changed the fingerprint\nbody: %q", c.name, body)
	}
	if !reflect.DeepEqual(c.params(pooled), c.params(fresh)) {
		t.Fatalf("%s: warm pooled decode: parameters %+v, fresh %+v\nbody: %q", c.name, c.params(pooled), c.params(fresh), body)
	}
	if err := sameInstance(pooled, fresh); err != nil {
		t.Fatalf("%s: warm pooled decode: %v\nbody: %q", c.name, err, body)
	}
}

// topMembers returns the spans of the top-level members of body, key through
// value, and which of them are instance members; nil when body is not an
// object the scanner can walk.
func topMembers(body []byte) (spans [][2]int, instance []bool) {
	s := wire.NewScanner(body)
	if s.Peek() != '{' {
		return nil, nil
	}
	err := s.Object(func(key []byte) error {
		end := s.Offset() // behind the colon
		start := bytes.LastIndex(body[:end], key)
		err := s.Skip()
		spans = append(spans, [2]int{start, s.Offset()})
		instance = append(instance, instanceFields.Index(key) >= 0)
		return err
	})
	if err != nil {
		return nil, nil
	}
	return spans, instance
}

// changeMemberByte returns body with one byte inside an instance member's
// value changed — a digit to the next digit, anything else to a byte one
// bit away — or nil when body has no such member.
func changeMemberByte(body []byte) []byte {
	spans, instance := topMembers(body)
	for i, span := range spans {
		if !instance[i] {
			continue
		}
		colon := span[0] + bytes.IndexByte(body[span[0]:span[1]], ':')
		value := body[colon+1 : span[1]]
		if len(value) < 2 {
			continue
		}
		out := bytes.Clone(body)
		at := colon + 1 + len(value)/2
		if c := out[at]; '0' <= c && c <= '9' {
			out[at] = '0' + (c-'0'+1)%10
		} else {
			out[at] ^= 1
		}
		return out
	}
	return nil
}

// reorderMembers returns body with its top-level members in reverse order,
// or nil when there are fewer than two.
func reorderMembers(body []byte) []byte {
	spans, _ := topMembers(body)
	if len(spans) < 2 {
		return nil
	}
	out := []byte{'{'}
	for i := len(spans) - 1; i >= 0; i-- {
		out = append(out, body[spans[i][0]:spans[i][1]]...)
		if i > 0 {
			out = append(out, ',')
		}
	}
	return append(out, '}')
}

// TestDecodeDivergences pins the two places decodeBody deliberately departs
// from the decoders it replaced, on all five request types.
func TestDecodeDivergences(t *testing.T) {
	for _, c := range differentialCases {
		valid := differentialBodies[c.name]
		if _, err := c.decode([]byte(valid)); err != nil {
			t.Fatalf("%s: well-formed body refused: %v", c.name, err)
		}
		// Trailing data the parent let through.
		for _, tail := range []string{"]", "}", " ]garbage", "x", "{}"} {
			_, err := c.decode([]byte(valid + tail))
			if err == nil || !strings.Contains(err.Error(), "decoding request: unexpected data after the JSON body") {
				t.Errorf("%s: tail %q: %v", c.name, tail, err)
			}
		}
		// A repeated member: the last occurrence stands, decoded from
		// nothing — the null entry is 0, not the 5 of the first matrix.
		dup := strings.Replace(valid, `"delay":[[0,1],[1,0]]`, `"delay":[[0,5],[5,0]],"delay":[[null,1],[1,0]]`, 1)
		dup = strings.Replace(dup, `"tasks":3`, `"tasks":9,"TASKS":3`, 1)
		got, err := c.decode([]byte(dup))
		if err != nil {
			t.Fatalf("%s: body with repeated members refused: %v", c.name, err)
		}
		want, _ := c.decode([]byte(valid))
		if !reflect.DeepEqual(c.fingerprints(got), c.fingerprints(want)) {
			t.Errorf("%s: a repeated member did not decode as its last occurrence alone", c.name)
		}
	}
}

// TestHugeTaskCountRefused: a task count is the one size a body declares
// rather than spells out. One the body has no room to back with cost rows is
// refused before anything is allocated by it — the parent died of a fatal
// out-of-memory on these 33 bytes.
func TestHugeTaskCountRefused(t *testing.T) {
	for _, c := range differentialCases {
		for _, body := range []string{`{"graph": {"tasks": 9996999999}}`, `{"graph": {"tasks": 9996999999}`,
			strings.Replace(differentialBodies[c.name], `"tasks":3`, `"tasks":9996999999`, 1)} {
			if _, err := c.decode([]byte(body)); err == nil || !strings.Contains(err.Error(), "decoding request: ") {
				t.Errorf("%s: %q: %v", c.name, body, err)
			}
		}
	}
	// Through the skip: pooled storage holding a graph of that shape, kept
	// from a body padded with the cost rows that give it room, must not lend
	// it to the bare body, which has none.
	const graph, tasks = `{"tasks": 4096}`, 4096
	padded := `{"graph": ` + graph + `, "platform": {"procs": 1, "delay": [[0]]}, "costs": {"cost": [` +
		strings.Repeat("[1],", tasks-1) + `[1]]}, "scheduler": "heft", "epsilon": 0}`
	bare := []byte(`{"graph": ` + graph + `}`)
	pooled := AcquireScheduleRequest()
	defer ReleaseScheduleRequest(pooled)
	if err := DecodeScheduleRequestInto(pooled, strings.NewReader(padded)); err != nil {
		t.Fatal(err)
	}
	_, want := decodeFresh[ScheduleRequest](bare)
	if err := DecodeScheduleRequestInto(pooled, bytes.NewReader(bare)); err == nil || err.Error() != fmt.Sprint(want) ||
		!strings.Contains(err.Error(), "room for at most") {
		t.Fatalf("bare body after the padded one: %v, fresh: %v", err, want)
	}
}

// TestTrailingDataRefused is the HTTP face of the first divergence: every
// POST endpoint answers a valid request followed by anything but whitespace
// with a 400 — including the ']' and '}' the parent's Decoder.More check let
// through as a 200 — counts it as one client error, and admits nothing to
// the front index.
func TestTrailingDataRefused(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	paths := map[string]string{"schedule": "/schedule", "evaluate": "/evaluate", "tune": "/tune",
		"batch": "/schedule/batch", "mission": "/missions"}
	refused := uint64(0)
	for name, path := range paths {
		valid := differentialBodies[name]
		if rec := doServer(srv, http.MethodPost, path, []byte(valid+" \n")); rec.Code/100 != 2 {
			t.Fatalf("%s: valid body with trailing whitespace: %d %s", path, rec.Code, rec.Body.String())
		}
		for _, tail := range []string{"]", "}", " ]garbage", "x", "{}"} {
			body := []byte(valid + tail)
			for range 3 { // a repeat must not earn an alias either
				rec := doServer(srv, http.MethodPost, path, body)
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected data after the JSON body") {
					t.Fatalf("%s with tail %q: %d %s", path, tail, rec.Code, rec.Body.String())
				}
				refused++
			}
			if _, admitted := srv.front.Get(digestBody(path, body)); admitted {
				t.Fatalf("%s with tail %q reached the front index", path, tail)
			}
		}
	}
	if st := conserves(t, srv); st.ClientErrors != refused || st.BodyHits != 0 {
		t.Fatalf("client_errors = %d, body_hits = %d; want %d and 0", st.ClientErrors, st.BodyHits, refused)
	}
}
