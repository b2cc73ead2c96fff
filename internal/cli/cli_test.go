package cli

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A run that fails still leaves both profiles behind, and its own error is
// the one reported.
func TestProfileFlushesOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	boom := errors.New("boom")
	if err := Profile(cpu, mem, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Profile returned %v, want the body's error", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}

func TestProfileFileErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "p.prof")
	ran := false
	if err := Profile(missing, "", func() error { ran = true; return nil }); err == nil || ran {
		t.Errorf("unwritable -cpuprofile: err %v, body ran %v; want an error before the body", err, ran)
	}
	if err := Profile("", missing, func() error { return nil }); err == nil || !strings.HasPrefix(err.Error(), "prof: ") {
		t.Errorf("unwritable -memprofile: err %v, want a prof: error", err)
	}
	boom := errors.New("boom")
	if err := Profile("", missing, func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("unwritable -memprofile after a failed body: err %v, want the body's error", err)
	}
	if err := Profile("", "", func() error { return nil }); err != nil {
		t.Errorf("no profiles: %v", err)
	}
}

func parsed(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		fs.Int(name, 0, "")
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestOnly(t *testing.T) {
	fs := parsed(t, "-e", "1", "-d", "1", "-b", "1")
	for _, tc := range []struct {
		own   string
		reads []string
		want  string
	}{
		{"", nil, "-b does not apply to M"},
		{"b", []string{"e"}, "-d does not apply to M"},
		{"d", []string{"b", "a"}, "-e does not apply to M"},
		{"e", []string{"b", "d"}, ""}, // own and reads together cover every flag passed
		{"x", []string{"b", "d", "e"}, ""},
	} {
		got := ""
		if err := Only(fs, "M", tc.own, tc.reads...); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Only(own %q, reads %v) = %q, want %q", tc.own, tc.reads, got, tc.want)
		}
	}
	if err := Only(parsed(t), "M", ""); err != nil {
		t.Errorf("no flags passed: %v", err)
	}
}

func TestIsSet(t *testing.T) {
	fs := parsed(t, "-c", "0")
	if !IsSet(fs, "c") {
		t.Error("-c passed at its default value is not set")
	}
	if IsSet(fs, "a") || IsSet(fs, "nosuch") {
		t.Error("an unpassed flag is set")
	}
}
