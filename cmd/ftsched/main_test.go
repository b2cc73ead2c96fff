package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ftsched runs the binary's code path in-process and returns its exit status
// and both streams.
func ftsched(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// instance is the absolute path of the 12-task daggen golden instance, so a
// test can chdir into a scratch directory and still read it.
func instance(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "daggen", "testdata", "tasks12"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// wallClock matches the -compare time column after the quality ratio, the
// one field that is not a function of the instance and the flags.
var wallClock = regexp.MustCompile(`(?m)(\.\d\dx) +\S+$`)

// The goldens are the stdout of the last binary with hand-kept reject lists
// and fatal exits, run with the same flags from a scratch directory. The
// cases run in order: -load reads the file the -save case wrote.
func TestTranscripts(t *testing.T) {
	dir := instance(t)
	golden, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, tc := range []struct{ name, args string }{
		{"plain", "-v -gantt -metrics"},
		{"crash", "-crash 1 -trials 3 -trace"},
		{"evaluate", "-evaluate -trials 50 -worst-case 1 -policies static,reschedule"},
		{"save", "-eps 2 -save s.json"},
		{"load", "-load s.json -v"},
		{"load-evaluate", "-load s.json -evaluate -scenario exp:0.001 -trials 30"},
		{"tune", "-tune -scenario uniform:1 -trials 40 -worst-case 1 -robust"},
		{"maxeps", "-maxeps -latency 500"},
		{"compare", "-compare"},
		{"list-schedulers", "-list-schedulers"},
		{"heft", "-algo heft"}, // ε defaults to 0 for a non-fault-tolerant scheduler
		{"mcftsa", "-algo mcftsa -policy bottleneck -latency 800"},
	} {
		want, err := os.ReadFile(filepath.Join(golden, tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		code, out, errw := ftsched(append([]string{"-dir", dir}, strings.Fields(tc.args)...)...)
		if code != 0 || errw != "" {
			t.Fatalf("%s: exit %d, stderr %q", tc.args, code, errw)
		}
		if got := wallClock.ReplaceAllString(out, "$1 <time>"); got != string(want) {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.args, got, want)
		}
	}
}

// matrixFlags are added one at a time to every base mode of TestFlagMatrix.
var matrixFlags = []string{
	"-algo heft", "-eps 2", "-seed 3", "-crash -1", "-trials 2", "-evaluate",
	"-scenario uniform:1", "-policies static", "-latency 500", "-policy greedy",
	"-maxeps", "-tune", "-target 0.9", "-worst-case -1", "-worst-evals 10",
	"-robust", "-v", "-gantt", "-metrics", "-trace", "-save out.json",
	"-load s.json", "-compare", "-list-schedulers", "-cpuprofile cpu.prof",
	"-memprofile mem.prof",
}

// TestFlagMatrix pins the exit status of each base mode with each flag added.
// The digits, one per matrixFlags entry, are what the binary with hand-kept
// reject lists returned. The cells in offValue differ on purpose: a flag
// passed at its "off" value used to pass a mode that does not read it, and
// is now refused like any other flag the mode does not read.
func TestFlagMatrix(t *testing.T) {
	dir := instance(t)
	t.Chdir(t.TempDir())
	if code, _, errw := ftsched("-dir", dir, "-save", "s.json"); code != 0 {
		t.Fatalf("-save: exit %d, %s", code, errw)
	}
	offValue := map[string]bool{"-crash -1": true, "-worst-case -1": true}
	for _, row := range []struct {
		base, codes string
		refusesOff  bool
	}{
		{"", "00001011011110110001000000", true},
		{"-crash 1", "00000111011110110000001000", true},
		{"-evaluate -trials 20", "00010000011110110001001000", false},
		{"-load s.json", "11001011111110110001101000", true},
		{"-load s.json -crash 1", "11000111111110110000101000", true},
		{"-load s.json -evaluate -trials 20", "11010001111110110001101000", false},
		{"-maxeps -latency 500", "11011111010111111111111000", false},
		{"-compare", "10011111111111111111110000", false},
		{"-tune -scenario uniform:1 -trials 20", "11010101111000111111111000", false},
	} {
		for i, added := range matrixFlags {
			want := int(row.codes[i] - '0')
			if row.refusesOff && offValue[added] {
				if want != 0 {
					t.Fatalf("%q %s: the old binary refused it too", row.base, added)
				}
				want = 1
			}
			args := append([]string{"-dir", dir}, strings.Fields(row.base+" "+added)...)
			if code, _, errw := ftsched(args...); code != want {
				t.Errorf("ftsched %s: exit %d, want %d\n%s", strings.Join(args[2:], " "), code, want, errw)
			}
		}
	}
}

// resized copies the instance with its cost matrix cut or padded to rows
// rows, and returns the copy's directory.
func resized(t *testing.T, dir string, rows int) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{"graph.json", "platform.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(out, name), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var costs struct {
		Cost [][]float64 `json:"cost"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "costs.json"))
	if err == nil {
		err = json.Unmarshal(b, &costs)
	}
	if err != nil {
		t.Fatal(err)
	}
	for len(costs.Cost) < rows {
		costs.Cost = append(costs.Cost, costs.Cost[0])
	}
	costs.Cost = costs.Cost[:rows]
	if b, err = json.Marshal(costs); err == nil {
		err = os.WriteFile(filepath.Join(out, "costs.json"), b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRejectedInvocations(t *testing.T) {
	dir := instance(t)
	short, long := resized(t, dir, 11), resized(t, dir, 13)
	for _, tc := range []struct {
		args string
		code int
		want string // the first line of stderr, and all of it on exit 1
	}{
		{"extra -compare", 2, `ftsched: unexpected argument "extra"`},
		{"-nosuch", 2, "flag provided but not defined: -nosuch"},
		{"-trials 3", 1, "ftsched: -trials does not apply to a plain schedule"},
		{"-crash -1", 1, "ftsched: -crash does not apply to a plain schedule"},
		{"-worst-case -1", 1, "ftsched: -worst-case does not apply to a plain schedule"},
		{"-worst-case 1", 1, "ftsched: -worst-case does not apply to a plain schedule"},
		{"-crash 1 -robust", 1, "ftsched: -robust does not apply to -crash"},
		{"-evaluate -crash 1", 1, "ftsched: -crash does not apply to -evaluate"},
		{"-evaluate -trace", 1, "ftsched: -trace does not apply to -evaluate"},
		{"-load x.json -algo heft", 1, "ftsched: -algo does not apply to -load"},
		{"-load x.json -evaluate -policies static", 1, "ftsched: -policies does not apply to -load -evaluate"},
		{"-compare -crash 1", 1, "ftsched: -crash does not apply to -compare"},
		{"-compare -tune", 1, "ftsched: -tune does not apply to -compare"},
		{"-maxeps -latency 500 -eps 2", 1, "ftsched: -eps does not apply to -maxeps"},
		{"-tune -scenario uniform:1 -algo heft", 1, "ftsched: -algo does not apply to -tune"},
		{"-evaluate -worst-evals 10", 1, "ftsched: -worst-evals requires -worst-case"},
		{"-tune -scenario uniform:1 -robust", 1, "ftsched: -robust requires -worst-case"},
		{"-maxeps", 1, "ftsched: -maxeps needs a positive -latency"},
		{"-tune", 1, "ftsched: -tune needs -scenario (the failure law candidates are scored under), e.g. -scenario exp:0.001"},
		// Bad values fail before the schedule is printed.
		{"-crash 1 -trials 0", 1, "ftsched: -trials must be >= 1, got 0"},
		{"-crash 1 -trials -4", 1, "ftsched: -trials must be >= 1, got -4"},
		{"-evaluate -trials 0", 1, "ftsched: -trials must be >= 1, got 0"},
		{"-tune -scenario uniform:1 -trials 0", 1, "ftsched: -trials must be >= 1, got 0"},
		{"-evaluate -scenario bogus", 1, `ftsched: sim: unknown scenario kind "bogus" (known: uniform:N, exp:LAMBDA, weibull:SHAPE:SCALE, group:SIZE:LAMBDA, burst:N:LAMBDA[:SPREAD], staggered:N:HORIZON, trace:FILE[:SCALE][:resample])`},
		{"-evaluate -policies static,bogus", 1, `ftsched: mission: unknown policy "bogus" (want "static" or "reschedule")`},
		{"-evaluate -worst-case 1 -worst-evals -5", 1, "ftsched: sim: negative worst-case max_evals -5"},
		{"-algo nope", 1, `ftsched: sched: unknown scheduler "nope" (registered: ftsa, mcftsa, ftsa-ins, ftbar, heft)`},
		// A latency that is not a number fails every comparison; it is
		// refused, not read as "no deadline".
		{"-eps 1 -latency NaN", 1, "ftsched: sched: latency must be finite and >= 0, got NaN"},
		{"-maxeps -latency NaN", 1, "ftsched: sched: latency budget must be finite and positive, got NaN"},
		// The cost matrix has exactly one row per task.
		{"-dir " + long, 1, "ftsched: sched: cost model 13x4 does not match graph (12 tasks) and platform (4 procs)"},
		// Deadlines are derived after the cost model's shape is checked.
		{"-dir " + short + " -latency 1e9", 1, "ftsched: sched: cost model 11x4 does not match graph (12 tasks) and platform (4 procs)"},
		// -maxeps reports what stopped the search, not an unreachable budget.
		{"-dir " + short + " -maxeps -latency 1e9", 1, "ftsched: sched: cost model 11x4 does not match graph (12 tasks) and platform (4 procs)"},
	} {
		code, out, errw := ftsched(append([]string{"-dir", dir}, strings.Fields(tc.args)...)...)
		first, _, _ := strings.Cut(errw, "\n")
		if code != tc.code || first != tc.want || (code == 1 && errw != tc.want+"\n") {
			t.Errorf("ftsched %s: exit %d, stderr %q; want exit %d and %q", tc.args, code, errw, tc.code, tc.want)
		}
		if out != "" {
			t.Errorf("ftsched %s: rejected run wrote to stdout: %q", tc.args, out)
		}
	}
	if code, _, errw := ftsched("-dir", filepath.Join(t.TempDir(), "none")); code != 1 || !strings.Contains(errw, "graph.json: no such file") {
		t.Errorf("missing instance: exit %d, stderr %q", code, errw)
	}
}

// The flag surface is pinned: a new flag has to retire another.
func TestFlagCount(t *testing.T) {
	code, _, usage := ftsched("-h")
	if code != 0 {
		t.Fatalf("-h exits %d", code)
	}
	flags := 0
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags != 27 {
		t.Errorf("ftsched registers %d flags, want 27", flags)
	}
}

// Profiles are flushed even when the run exits with an error.
func TestProfilesOnFailedRun(t *testing.T) {
	tmp := t.TempDir()
	cpu, mem := filepath.Join(tmp, "cpu.prof"), filepath.Join(tmp, "mem.prof")
	if code, _, _ := ftsched("-dir", instance(t), "-algo", "nope", "-cpuprofile", cpu, "-memprofile", mem); code != 1 {
		t.Fatalf("-algo nope: exit %d", code)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", path, err)
		}
	}
}
