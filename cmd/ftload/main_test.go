package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftsched/internal/load"
)

// loadArgs keeps the determinism tests fast: a small corpus and a modest
// request budget still exercise all three endpoints of the mixed profile.
var loadArgs = []string{
	"-mode", "closed", "-seed", "1",
	"-requests", "150", "-corpus-size", "4", "-tasks-min", "12", "-tasks-max", "24",
}

// TestRunByteIdentical pins the headline acceptance property: the same
// ftload invocation against the in-process server produces byte-identical
// JSON reports, run after run.
func TestRunByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(loadArgs, &a); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(loadArgs, &b); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("reports differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s", a.Bytes(), b.Bytes())
	}
	rep, err := readReport(a.Bytes())
	if err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	if !rep.Deterministic || rep.Mode != "closed" || rep.Seed != 1 {
		t.Fatalf("report echo wrong: deterministic=%v mode=%q seed=%d", rep.Deterministic, rep.Mode, rep.Seed)
	}
	if rep.Requests != 150 {
		t.Fatalf("Requests = %d, want 150", rep.Requests)
	}
	if rep.Total.OK != rep.Requests {
		t.Fatalf("OK = %d of %d requests; deterministic smoke run must not error", rep.Total.OK, rep.Requests)
	}
}

// TestRunWorkerCountInvariant pins the harder half of the property: the
// deterministic report must not depend on -workers either.
func TestRunWorkerCountInvariant(t *testing.T) {
	var base bytes.Buffer
	if err := run(append([]string{"-workers", "1"}, loadArgs...), &base); err != nil {
		t.Fatalf("workers=1 run: %v", err)
	}
	for _, w := range []string{"2", "8"} {
		var got bytes.Buffer
		if err := run(append([]string{"-workers", w}, loadArgs...), &got); err != nil {
			t.Fatalf("workers=%s run: %v", w, err)
		}
		if !bytes.Equal(base.Bytes(), got.Bytes()) {
			t.Fatalf("report with -workers %s differs from -workers 1", w)
		}
	}
}

// TestRunShardCountInvariant extends the worker-count property to the
// deployment shape: the same deterministic run against 2 or 4 in-process
// shards behind a coordinator reports exactly what the bare server reports,
// except for the shards echo itself. This is the CLI face of the sharding
// guarantee — disjoint stable cache keyspaces make the deployment
// behaviorally invisible.
func TestRunShardCountInvariant(t *testing.T) {
	normalized := func(shards string) string {
		var buf bytes.Buffer
		if err := run(append([]string{"-shards", shards}, loadArgs...), &buf); err != nil {
			t.Fatalf("shards=%s run: %v", shards, err)
		}
		rep, err := readReport(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if shards != "1" {
			want, _ = strconv.Atoi(shards)
		}
		if rep.Shards != want {
			t.Fatalf("shards=%s report echoes shards=%d, want %d", shards, rep.Shards, want)
		}
		rep.Shards = 0
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	base := normalized("1")
	for _, shards := range []string{"2", "4"} {
		if got := normalized(shards); got != base {
			t.Fatalf("-shards %s report differs from the bare server:\n--- bare ---\n%s\n--- shards=%s ---\n%s",
				shards, base, shards, got)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "sideways"},
		{"-profile", "nope"},
		{"-requests", "-1"},
		{"-requests", "0"},
		{"-workers", "0"},
		{"-mode", "open", "-think", "50ms", "-rate", "2000"},
		{"-shards", "0"},
		{"-shards", "2", "-target", "http://localhost:1"},
		{"positional"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A non-finite granularity is refused while the corpus is built, before
	// any request runs, and the error says why.
	for _, g := range []string{"NaN", "Inf"} {
		var buf bytes.Buffer
		err := run([]string{"-granularity", g}, &buf)
		if err == nil || !strings.Contains(err.Error(), "granularity") || buf.Len() != 0 {
			t.Errorf("run(-granularity %s) = %v with %d report bytes, want a granularity error and no report", g, err, buf.Len())
		}
	}
}

// TestRunProfileFile exercises the custom-profile path end to end, including
// the strict-decoding guard.
func TestRunProfileFile(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/profile.json"
	writeFile(t, good, `{"name":"custom","weights":{"schedule":1,"evaluate":0,"tune":0},`+
		`"schedulers":["heft"],"epsilons":[0],"seeds":[7],`+
		`"eval_trials":[10],"eval_scenarios":["uniform:1"],"eval_seeds":[1],`+
		`"tune_trials":10,"tune_epsilons":[1],"tune_target":0.9}`)
	var buf bytes.Buffer
	args := append([]string{"-profile-file", good}, loadArgs...)
	if err := run(args, &buf); err != nil {
		t.Fatalf("custom profile run: %v", err)
	}
	rep, err := readReport(buf.Bytes())
	if err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	if rep.Profile.Name != "custom" {
		t.Fatalf("profile name = %q, want custom", rep.Profile.Name)
	}
	if len(rep.Endpoints) != 1 || rep.Endpoints["schedule"] == nil {
		t.Fatalf("endpoints = %v, want schedule only", endpointNames(rep))
	}

	bad := dir + "/bad.json"
	writeFile(t, bad, `{"name":"typo","wieghts":{"schedule":1}}`)
	if err := run(append([]string{"-profile-file", bad}, loadArgs...), &buf); err == nil ||
		!strings.Contains(err.Error(), "wieghts") {
		t.Fatalf("misspelled profile field: err = %v, want unknown-field error", err)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readReport parses a report written by Report.Marshal.
func readReport(data []byte) (*load.Report, error) {
	var r load.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// endpointNames returns the report's endpoint keys, sorted.
func endpointNames(r *load.Report) []string {
	return slices.Sorted(maps.Keys(r.Endpoints))
}
