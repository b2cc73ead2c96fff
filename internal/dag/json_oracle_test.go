package dag

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// oracleUnmarshal is Graph.UnmarshalJSON as it was before the wire scanner:
// encoding/json reflecting into the wire struct, then the same rebuild.
func oracleUnmarshal(g *Graph, data []byte) error {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	return g.rebuild(in.Name, in.Tasks, in.Edges)
}

// TestScanJSONMatchesOracle: a graph file decodes to the same graph, or is
// refused for the same reason, as it was by encoding/json.
func TestScanJSONMatchesOracle(t *testing.T) {
	docs := []string{
		`{"name":"d","tasks":3,"edges":[{"src":0,"dst":1,"volume":1},{"src":1,"dst":2,"volume":0.5}]}`,
		` { "edges" : [ { "volume" : 2.5e-1 , "dst" : 2 , "src" : 0 } ] , "tasks" : 3 , "name" : "r" } `,
		`{"NAME":"d","Tasks":2,"EDGES":[{"SRC":0,"Dst":1,"ſrc":0,"volume":1}]}`,
		`{"name":"aé😀\n\ud800","tasks":1,"edges":[],"meta":{"x":[1,{"y":null}]}}`,
		"{\"name\":\"a\xffb\",\"tasks\":0}",
		`{}`, `null`, `{"tasks":2}`, `{"tasks":2,"edges":null}`, `{"name":null,"tasks":null,"edges":null}`,
		`{"tasks":2,"edges":[{"src":0,"dst":1,"volume":-0}]}`,
		`{"tasks":2,"edges":[{"src":0,"dst":1,"volume":1e-400}]}`,
		`{"tasks":2,"edges":[{"src":0,"dst":1,"volume":null,"extra":[[]]}]}`,
		// Refused.
		`{"tasks":2,"edges":[null]}`, `{"tasks":0,"edges":[null]}`, `{"tasks":2,"edges":[{"dst":1},{"dst":1}]}`,
		`{"tasks":2,"edges":[{"src":0,"dst":1,"volume":-1}]}`, `{"tasks":2,"edges":[{"src":0,"dst":2}]}`,
		`{"tasks":2,"edges":[{"src":0,"dst":1},{"src":1,"dst":0}]}`, `{"tasks":-1}`,
		`{"tasks":1.0}`, `{"tasks":1e2}`, `{"tasks":"1"}`, `{"tasks":99999999999999999999}`,
		`{"tasks":2,"edges":[{"src":99999999999999999999,"dst":1}]}`, `{"tasks":2,"edges":[{"src":0,"dst":1,"volume":1e309}]}`,
		`{"tasks":2,"edges":{}}`, `{"tasks":2,"edges":[[0,1,1]]}`, `{"name":7}`, `[]`, `7`, `"g"`, ``, `{`, `{"tasks":2,}`,
		`{"tasks":2} x`, `{"tasks":2}]`, "\ufeff{}", "\f{}",
	}
	for _, doc := range docs {
		var got, want Graph
		gotErr, wantErr := got.UnmarshalJSON([]byte(doc)), oracleUnmarshal(&want, []byte(doc))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: ScanJSON %v, oracle %v", doc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			// rebuild's messages are the client's; encoding/json's were not kept.
			if !strings.Contains(wantErr.Error(), "decoding graph") && gotErr.Error() != wantErr.Error() {
				t.Errorf("%q: refused with %q, oracle %q", doc, gotErr, wantErr)
			}
			continue
		}
		if got.Name() != want.Name() || got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() {
			t.Errorf("%q: decoded %v, oracle %v", doc, &got, &want)
			continue
		}
		for task := TaskID(0); int(task) < want.NumTasks(); task++ {
			if !slices.Equal(got.Succs(task), want.Succs(task)) || !slices.Equal(got.Preds(task), want.Preds(task)) {
				t.Errorf("%q: adjacency of task %d differs from the oracle's", doc, task)
			}
		}
	}
}
