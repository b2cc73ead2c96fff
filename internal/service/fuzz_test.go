package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// fuzzSeedBodies are the deterministic seeds of FuzzDecodePayload: the
// docs/API.md example requests (well-formed), their /evaluate extensions,
// and the malformed-table shapes the 400 tests pin. The native fuzzer
// mutates these into the adversarial corpus; small regression inputs are
// checked in under testdata/fuzz.
var fuzzSeedBodies = []string{
	// docs/API.md: the diamond FTSA example.
	`{
	  "graph": {
	    "name": "diamond",
	    "tasks": 4,
	    "edges": [
	      {"src": 0, "dst": 1, "volume": 1},
	      {"src": 0, "dst": 2, "volume": 2},
	      {"src": 1, "dst": 3, "volume": 1},
	      {"src": 2, "dst": 3, "volume": 0.5}
	    ]
	  },
	  "platform": {
	    "procs": 3,
	    "delay": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]
	  },
	  "costs": {
	    "cost": [[1, 2, 1.5], [2, 1, 1], [1, 1, 2], [2, 1.5, 1]]
	  },
	  "scheduler": "ftsa",
	  "epsilon": 1
	}`,
	// docs/API.md: the MC-FTSA variant with options.
	`{"graph": {"name": "d", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 1], [1, 0]]},
	  "costs": {"cost": [[1, 2], [2, 1]]},
	  "scheduler": "mcftsa", "epsilon": 1, "lambda": 0.001, "include_gantt": true}`,
	// docs/API.md: the /evaluate example shape.
	`{"graph": {"name": "d", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 1], [1, 0]]},
	  "costs": {"cost": [[1, 2], [2, 1]]},
	  "scheduler": "ftsa", "epsilon": 1,
	  "trials": 100, "scenario": {"kind": "uniform", "crashes": 1}, "eval_seed": 7}`,
	// The 400-table shapes.
	"",
	"epsilon=1",
	`{"graph": {"name":`,
	`{"graph": 7, "platform": [], "costs": "x", "scheduler": 1}`,
	`{"scheduler": "ftsa", "epsilon": 1}`,
	`{"trials": "soon"}`,
	`{"scenario": {"kind": "weibull", "shape": -1}}`,
	// Adversarial numerics: huge dims, NaN-ish text, deep nesting.
	`{"graph": {"tasks": 99999999999999999999}}`,
	`{"graph": {"name": "x", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1e309}]}}`,
	`{"graph": {"name": "x", "tasks": -1, "edges": []}}`,
	`{"platform": {"procs": 2, "delay": [[0]]}}`,
	`[[[[[[[[[[]]]]]]]]]]`,
	`{"graph": null, "platform": null, "costs": null, "scheduler": null}`,
	// /schedule/batch shapes: a well-formed two-item batch and degenerates.
	`{"graph": {"name": "d", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 1], [1, 0]]},
	  "costs": {"cost": [[1, 2], [2, 1]]},
	  "requests": [{"scheduler": "ftsa", "epsilon": 1}, {"scheduler": "heft"}]}`,
	`{"requests": []}`,
	`{"requests": [null]}`,
	// /missions shapes: a well-formed mission and a policy-only degenerate.
	`{"graph": {"name": "d", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 1], [1, 0]]},
	  "costs": {"cost": [[1, 2], [2, 1]]},
	  "scheduler": "ftsa", "epsilon": 1, "seed": 7,
	  "scenario": {"kind": "uniform", "crashes": 1}, "scenario_seed": 5,
	  "mission_policy": "reschedule"}`,
	`{"mission_policy": "optimistic"}`,
	// docs/API.md: the /tune example shape. New seeds go last, so each
	// seed#N of FuzzDecodePayload and FuzzDecodeDifferential keeps its body.
	`{"graph": {"name": "d", "tasks": 2, "edges": [{"src": 0, "dst": 1, "volume": 1}]},
	  "platform": {"procs": 2, "delay": [[0, 1], [1, 0]]},
	  "costs": {"cost": [[1, 2], [2, 1]]},
	  "scenario": {"kind": "uniform", "crashes": 1}, "trials": 40, "target": 0.9, "eval_seed": 7}`,
}

// FuzzDecodePayload proves malformed input never panics either endpoint's
// decoder: every outcome must be a clean (request, nil) or (nil, error), and
// an accepted request must survive fingerprinting (the next thing the
// handler does with it). Through a live server it also proves the front
// index changes no answer: a body gets the same status and bytes however
// often it is sent, and one that was ever refused is never admitted.
func FuzzDecodePayload(f *testing.F) {
	for _, seed := range fuzzSeedBodies {
		f.Add([]byte(seed))
	}
	// Tight guards keep a mutated request from buying a long computation.
	srv := New(Config{MaxTasks: 64, MaxTrials: 64, MaxCandidates: 32})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			if !ep.cached {
				continue
			}
			first := doServer(srv, http.MethodPost, ep.path, body)
			frontHits := srv.bodyHits.Load()
			for k := 2; k <= 3; k++ {
				rec := doServer(srv, http.MethodPost, ep.path, body)
				if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
					t.Fatalf("%s POST %d: %d %q, first POST: %d %q",
						ep.path, k, rec.Code, rec.Body.String(), first.Code, first.Body.String())
				}
			}
			if first.Code == http.StatusOK {
				continue
			}
			if _, admitted := srv.front.Get(ep.Digest(body)); admitted || srv.bodyHits.Load() != frontHits {
				t.Fatalf("%s: a body answered %d reached the front index", ep.path, first.Code)
			}
		}
		if req, err := DecodeScheduleRequest(bytes.NewReader(body)); err == nil {
			if req == nil {
				t.Fatal("DecodeScheduleRequest returned nil, nil")
			}
			_ = RequestFingerprint(req)
		}
		if req, err := DecodeEvaluateRequest(bytes.NewReader(body)); err == nil {
			if req == nil {
				t.Fatal("DecodeEvaluateRequest returned nil, nil")
			}
			_ = EvaluateFingerprint(req)
			if _, err := req.Scenario.Generator(); err != nil {
				t.Fatalf("validated request carries an unusable scenario: %v", err)
			}
		}
		if req, err := DecodeTuneRequest(bytes.NewReader(body)); err == nil {
			if req == nil {
				t.Fatal("DecodeTuneRequest returned nil, nil")
			}
			_ = TuneFingerprint(req)
		}
		if req, err := ParseBatchRequest(body); err == nil {
			if req == nil {
				t.Fatal("ParseBatchRequest returned nil, nil")
			}
			if len(req.Items()) == 0 {
				t.Fatal("validated batch expands to zero items")
			}
			for _, it := range req.Items() {
				_ = RequestFingerprint(it)
			}
		}
		if req, err := decodeRequest[MissionRequest](body); err == nil {
			if req == nil {
				t.Fatal("the /missions decode returned nil, nil")
			}
			// The fingerprint is the mission id, and the scenario drives the
			// controller — both must be usable for any accepted request.
			fp := MissionFingerprint(req)
			if _, err := ParseMissionID(MissionID(fp)); err != nil {
				t.Fatalf("mission id does not round-trip: %v", err)
			}
			if _, err := req.Scenario.Generator(); err != nil {
				t.Fatalf("validated request carries an unusable scenario: %v", err)
			}
		}
	})
}

// TestDecodeSeedCorpus keeps the seed corpus meaningful outside fuzzing: the
// well-formed seeds must decode, the malformed ones must error — all without
// panicking, which is the property the fuzzer then stretches.
func TestDecodeSeedCorpus(t *testing.T) {
	wantOK := map[int]string{0: "schedule", 1: "schedule", 2: "evaluate",
		len(fuzzSeedBodies) - 6: "batch", len(fuzzSeedBodies) - 3: "mission", len(fuzzSeedBodies) - 1: "tune"}
	for i, seed := range fuzzSeedBodies {
		_, serr := DecodeScheduleRequest(strings.NewReader(seed))
		_, eerr := DecodeEvaluateRequest(strings.NewReader(seed))
		_, terr := DecodeTuneRequest(strings.NewReader(seed))
		_, berr := ParseBatchRequest([]byte(seed))
		_, merr := decodeRequest[MissionRequest]([]byte(seed))
		switch wantOK[i] {
		case "schedule":
			if serr != nil {
				t.Errorf("seed %d: schedule decode failed: %v", i, serr)
			}
		case "evaluate":
			if eerr != nil {
				t.Errorf("seed %d: evaluate decode failed: %v", i, eerr)
			}
		case "tune":
			if terr != nil {
				t.Errorf("seed %d: tune decode failed: %v", i, terr)
			}
		case "batch":
			if berr != nil {
				t.Errorf("seed %d: batch decode failed: %v", i, berr)
			}
		case "mission":
			if merr != nil {
				t.Errorf("seed %d: mission decode failed: %v", i, merr)
			}
		default:
			if serr == nil && eerr == nil && terr == nil && berr == nil && merr == nil {
				t.Errorf("seed %d: malformed body accepted by every decoder", i)
			}
		}
	}
}
