package load

import (
	"bytes"
	"encoding/json"
	"testing"

	"ftsched/internal/sim"
)

// The body shapes Request marshaled through json.Encoder before it spliced
// the pre-marshaled instance: the reference for the bytes it must produce.
type oracleScheduleBody struct {
	Graph     json.RawMessage `json:"graph"`
	Platform  json.RawMessage `json:"platform"`
	Costs     json.RawMessage `json:"costs"`
	Scheduler string          `json:"scheduler"`
	Epsilon   int             `json:"epsilon"`
	Seed      int64           `json:"seed,omitempty"`
}

type oracleEvaluateBody struct {
	oracleScheduleBody
	Trials   int              `json:"trials"`
	Scenario sim.ScenarioSpec `json:"scenario"`
	EvalSeed int64            `json:"eval_seed,omitempty"`
}

type oracleTuneBody struct {
	Graph    json.RawMessage  `json:"graph"`
	Platform json.RawMessage  `json:"platform"`
	Costs    json.RawMessage  `json:"costs"`
	Scenario sim.ScenarioSpec `json:"scenario"`
	Trials   int              `json:"trials"`
	Target   float64          `json:"target"`
	Epsilons []int            `json:"epsilons"`
	EvalSeed int64            `json:"eval_seed,omitempty"`
}

func testSynthesizer(t testing.TB, corpus CorpusSpec) *Synthesizer {
	t.Helper()
	c, err := BuildCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileByName("tune") // all three endpoints
	if err != nil {
		t.Fatal(err)
	}
	sy, err := NewSynthesizer(c, profile, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sy
}

// TestRequestBytesMatchEncoder: splicing the instance in front of the
// encoded parameters yields, byte for byte, what json.Encoder gives for the
// whole body as one struct — so cache keys, front-index digests and the
// deterministic report goldens cannot tell the difference.
func TestRequestBytesMatchEncoder(t *testing.T) {
	sy := testSynthesizer(t, CorpusSpec{Size: 6, Family: "mixed", TasksMin: 8, TasksMax: 16})
	seen := map[string]int{}
	for index := uint64(0); index < 200; index++ {
		req, err := sy.Request(index)
		if err != nil {
			t.Fatal(err)
		}
		seen[req.Endpoint]++
		// Read the drawn parameters back out of the body, then encode them
		// the old way around the same corpus item.
		item := &sy.corpus.items[req.Rank]
		var whole any
		switch req.Endpoint {
		case "schedule":
			whole = &oracleScheduleBody{Graph: item.graph, Platform: item.platform, Costs: item.costs}
		case "evaluate":
			whole = &oracleEvaluateBody{oracleScheduleBody: oracleScheduleBody{Graph: item.graph, Platform: item.platform, Costs: item.costs}}
		default:
			whole = &oracleTuneBody{Graph: item.graph, Platform: item.platform, Costs: item.costs}
		}
		params := json.NewDecoder(bytes.NewReader(req.Body))
		params.DisallowUnknownFields()
		if err := params.Decode(whole); err != nil {
			t.Fatalf("request %d (%s): body does not decode: %v", index, req.Endpoint, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(whole); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(req.Body, want.Bytes()) {
			t.Fatalf("request %d (%s): body differs from json.Encoder's\n got %s\nwant %s", index, req.Endpoint, req.Body, want.Bytes())
		}
	}
	for _, endpoint := range []string{"schedule", "evaluate", "tune"} {
		if seen[endpoint] == 0 {
			t.Errorf("200 requests drew no %s request; the pin does not cover it", endpoint)
		}
	}
}

// BenchmarkSynthRequest is the load generator's per-request cost on a
// paper-sized corpus (100–150 tasks, 20 processors): what a benchmark's
// set-up pays 2 048 times before its clock starts.
func BenchmarkSynthRequest(b *testing.B) {
	sy := testSynthesizer(b, CorpusSpec{Size: 8, Procs: 20, TasksMin: 100, TasksMax: 150})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sy.Request(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
