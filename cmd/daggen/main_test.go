package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// daggen runs the binary's code path in a fresh working directory, so a
// relative -out lands in the test's temporary tree.
func daggen(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Chdir(t.TempDir())
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// Output is byte-identical for a fixed seed: the three files and the summary
// line match the goldens under testdata/.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"tasks12", "-out OUT -tasks 12 -procs 4 -seed 3"},
		{"fft2", "-out OUT -family fft -n 2 -procs 3 -seed 2"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			dir := filepath.Join(mustGetwd(t), "testdata", tc.golden)
			code, out, errw := daggen(t, strings.Fields(tc.args)...)
			if code != 0 {
				t.Fatalf("daggen %s: exit %d\n%s", tc.args, code, errw)
			}
			got := map[string]string{"stdout": out}
			for _, name := range []string{"graph.json", "platform.json", "costs.json"} {
				got[name] = readFile(t, filepath.Join("OUT", name))
			}
			for name, g := range got {
				if want := readFile(t, filepath.Join(dir, name)); g != want {
					t.Errorf("%s differs from testdata/%s/%s:\n%s\nwant:\n%s", name, tc.golden, name, g, want)
				}
			}
		})
	}
}

func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string // must appear on stderr
	}{
		{"-family chain -n 3 -vol -1", 2, "-vol must be finite and >= 0"},
		{"-family chain -n 3 -vol NaN", 2, "-vol must be finite and >= 0"},
		{"-family chain -n 3 -vol Inf", 2, "-vol must be finite and >= 0"},
		{"-tasks -5", 2, "-tasks must be >= 0"},
		{"-g NaN", 2, "granularity NaN"},
		{"-g Inf", 2, "granularity +Inf"},
		{"-g -1", 2, "granularity -1"},
		{"-procs 0", 2, "need >=1 processor"},
		{"-bogus", 2, "flag provided but not defined: -bogus"},
		{"extra", 2, `unexpected argument "extra"`},
		{"-family torus", 1, `unknown family "torus"`},
	} {
		code, out, errw := daggen(t, append(strings.Fields(tc.args), "-out", "OUT")...)
		if code != tc.code || !strings.Contains(errw, tc.want) {
			t.Errorf("daggen %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errw, tc.code, tc.want)
		}
		if out != "" {
			t.Errorf("daggen %s: rejected run wrote to stdout: %q", tc.args, out)
		}
		if _, err := os.Stat("OUT"); !os.IsNotExist(err) {
			t.Errorf("daggen %s: rejected run created its output directory", tc.args)
		}
	}
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
