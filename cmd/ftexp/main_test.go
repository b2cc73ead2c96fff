package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ftexp runs the binary's code path in-process and returns its exit status
// and both streams.
func ftexp(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun is ftexp for invocations that have to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errw := ftexp(args...)
	if code != 0 {
		t.Fatalf("ftexp %s: exit %d\n%s", strings.Join(args, " "), code, errw)
	}
	return out
}

// frame drops the numeric rows of a figure transcript, leaving the panel
// headers, titles, legends and blank separators — everything but the sample.
func frame(transcript string) string {
	var keep []string
	for _, line := range strings.SplitAfter(transcript, "\n") {
		if t := strings.TrimLeft(line, " "); t != "" && t[0] >= '0' && t[0] <= '9' {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "")
}

// The goldens are `ftexp -fig N -graphs 2 -format F` of the last binary that
// still had the hand-rolled figure drivers, numeric rows dropped: the
// campaign presets must print the same panels under the same legends.
func TestFigureFramesMatchLegacyDrivers(t *testing.T) {
	for _, fig := range []string{"1", "2", "3", "4"} {
		for _, format := range []string{"ascii", "csv"} {
			want, err := os.ReadFile(filepath.Join("testdata", "fig"+fig+"."+format+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out := mustRun(t, "-fig", fig, "-instances", "2", "-gran", "1", "-format", format)
			if got := frame(out); got != string(want) {
				t.Errorf("-fig %s -format %s frame:\n%s\nwant:\n%s", fig, format, got, want)
			}
			if rows := strings.Count(out, "\n") - strings.Count(frame(out), "\n"); rows != strings.Count(out, "# Figure") {
				t.Errorf("-fig %s -format %s: %d numeric rows, want one per panel at -gran 1", fig, format, rows)
			}
		}
	}
}

func TestFigureIdenticalAcrossWorkers(t *testing.T) {
	serial := mustRun(t, "-fig", "4", "-instances", "2", "-format", "csv", "-parallel", "1")
	pooled := mustRun(t, "-fig", "4", "-instances", "2", "-format", "csv", "-parallel", "4")
	if serial != pooled {
		t.Errorf("-fig 4 differs between -parallel 1 and 4:\n%s\n---\n%s", serial, pooled)
	}
	if got := strings.Count(serial, "\n"); got != 2*(2+10)+1 {
		t.Errorf("-fig 4 csv has %d lines, want two 12-line panels and a separator", got)
	}
}

func TestFigureResumeMatchesUninterrupted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig2.jsonl")
	args := []string{"-fig", "2", "-instances", "2", "-gran", "0.5,1", "-checkpoint", ckpt}
	want := mustRun(t, args...)
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// An interrupt leaves the header, some finished cells and a torn line.
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 20 {
		t.Fatalf("checkpoint has %d lines", len(lines))
	}
	torn := strings.Join(lines[:8], "") + lines[8][:len(lines[8])/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errw := ftexp(args...); code != 1 || !strings.Contains(errw, "-resume") {
		t.Errorf("rerun without -resume: exit %d, stderr %q; want a refusal to clobber", code, errw)
	}
	if got := mustRun(t, append(args, "-resume")...); got != want {
		t.Errorf("resumed -fig 2 differs from the uninterrupted run:\n%s\n---\n%s", got, want)
	}
	// A checkpoint belongs to one preset: Figure 3 must not resume from it.
	if code, _, errw := ftexp("-fig", "3", "-instances", "2", "-gran", "0.5,1", "-checkpoint", ckpt, "-resume"); code != 1 || !strings.Contains(errw, "different campaign") {
		t.Errorf("-fig 3 resumed a -fig 2 checkpoint: exit %d, stderr %q", code, errw)
	}
}

func TestFigureSVGFiles(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "-fig", "4", "-instances", "1", "-gran", "0.5,1", "-format", "svg", "-out", dir)
	for _, name := range []string{"figure4a.svg", "figure4b.svg"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte("<svg")) || !bytes.Contains(blob, []byte("FTSA with 1 Crash")) {
			t.Errorf("%s is not the figure's chart", name)
		}
		if !strings.Contains(out, "wrote "+filepath.Join(dir, name)) {
			t.Errorf("stdout does not report %s: %q", name, out)
		}
	}
}

func TestCampaignPresets(t *testing.T) {
	fam := mustRun(t, "-campaign", "families", "-format", "csv")
	lines := strings.Split(strings.TrimSpace(fam), "\n")
	if len(lines) != 1+8*3 || !strings.HasPrefix(lines[0], "family,scheduler,epsilon,granularity,n,lb_mean") {
		t.Errorf("-campaign families csv: %d lines, header %q", len(lines), lines[0])
	}
	for _, want := range []string{"gauss,FTSA,2,1,1,", "intree,FTBAR,2,1,1,"} {
		if !strings.Contains(fam, want) {
			t.Errorf("-campaign families csv misses row %q", want)
		}
	}
	if pooled := mustRun(t, "-campaign", "families", "-format", "csv", "-parallel", "4"); pooled != fam {
		t.Error("-campaign families differs with -parallel 4")
	}
	paper := mustRun(t, "-campaign", "paper", "-instances", "1", "-gran", "1")
	if got := strings.Count(paper, `campaign "paper-figures-1-3", m=20, 1 instances/point`); got != 3 {
		t.Errorf("-campaign paper -instances 1 printed %d ε blocks, want 3:\n%s", got, paper)
	}
}

// A scenario campaign plots one curve per (scheduler, scenario).
func TestCampaignSVGSplitsScenarios(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "-campaign", "custom", "-schedulers", "ftsa", "-eps", "2", "-gran", "0.5,1", "-instances", "1",
		"-procs", "6", "-tasks", "20:30", "-evaluate", "uniform:1,uniform:2", "-trials", "2", "-format", "svg", "-out", dir)
	blob, err := os.ReadFile(filepath.Join(dir, "campaign-random-eps2-crash.svg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ftsa-crash uniform:1", "ftsa-crash uniform:2"} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Errorf("crash chart has no series %q", want)
		}
	}
}

func TestStudies(t *testing.T) {
	table := mustRun(t, "-table", "1", "-maxtasks", "100")
	if !strings.HasPrefix(table, "# Table 1: running times") || strings.Count(table, "\n") != 3 {
		t.Errorf("-table 1 -maxtasks 100:\n%s", table)
	}
	x4 := mustRun(t, "-x4", "-instances", "1", "-format", "csv")
	if !strings.HasPrefix(x4, "Tasks,MC-FTSA strict starvation,MC-FTSA degraded bound violations,FTSA starvation (control)\n10,") {
		t.Errorf("-x4 csv:\n%s", x4)
	}
	x6 := mustRun(t, "-x6", "-instances", "1")
	if !strings.HasPrefix(x6, "# X6: latency under contention-limited links, ε=2, m=20\n") || !strings.Contains(x6, "MC-FTSA (1-port)") {
		t.Errorf("-x6:\n%s", x6)
	}
}

func TestListSchedulers(t *testing.T) {
	out := mustRun(t, "-list-schedulers")
	for _, want := range []string{"ftsa\n", "mcftsa (aliases: mc-ftsa) [policies: greedy, bottleneck]\n", "heft"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-schedulers misses %q:\n%s", want, out)
		}
	}
}

func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string // must appear on stderr
	}{
		{"-fig 2 -schedulers ftsa", 1, "-schedulers does not apply to -fig 2"},
		{"-fig 2 -eps 1", 1, "-eps does not apply to -fig 2"},
		{"-fig 9", 1, "-fig 9: expt: no figure 9 in the paper"},
		{"-fig 1 -format json", 1, "-fig 1 supports -format ascii, csv, svg"},
		{"-fig 2 -x4", 1, "-x4 does not apply to -fig 2"},
		{"-campaign nope", 1, `unknown -campaign "nope"`},
		{"-campaign paper -fig 2", 1, "-fig does not apply to -campaign paper"},
		{"-campaign paper -procs 5", 1, "-procs does not apply to -campaign paper"},
		{"-campaign families -families fft", 1, "-families does not apply to -campaign families"},
		{"-campaign custom -robust", 1, "-robust does not apply to -campaign custom"},
		{"-campaign custom -trials 5", 1, "-trials only applies with -evaluate"},
		{"-campaign custom -format yaml", 1, "-campaign custom supports -format ascii, csv, json, svg"},
		{"-campaign tune -evaluate uniform:1 -robust", 1, "-robust requires -worst-case"},
		{"-campaign tune -evaluate uniform:1 -instances 3", 1, "-instances does not apply to -campaign tune"},
		{"-campaign tune", 1, "-campaign tune needs -evaluate"},
		{"-campaign custom -evaluate exp:NaN -instances 1 -gran 1", 1, `bad number "NaN"`},
		{"-campaign custom -schedulers FTSA -eps 1 -gran NaN -instances 1 -format csv", 1, "granularity NaN is not positive and finite"},
		{"-campaign tune -gran NaN -evaluate exp:0.0002 -trials 50", 1, "granularity NaN is not positive and finite"},
		{"-table 1 -format csv", 1, "-table 1 supports -format ascii"},
		{"-table 1 -instances 3", 1, "-instances does not apply to -table 1"},
		{"-table 2", 1, "-table 2"},
		// -maxtasks below every row used to print a header-only table.
		{"-table 1 -maxtasks 50", 1, "expt: empty Table 1 sweep"},
		{"-x4 -parallel 2", 1, "-parallel does not apply to -x4"},
		{"-x6 -format svg", 1, "-x6 supports -format ascii, csv"},
		{"-resume -fig 1 -instances 1 -gran 1", 1, "-resume needs a checkpoint path"},
		// A positional argument used to end flag parsing silently.
		{"-fig 4 -instances 1 -gran 1 extra -parallel 7", 2, `ftexp: unexpected argument "extra"`},
		// Retired flags are undefined, not silently accepted.
		{"-x5", 2, "flag provided but not defined: -x5"},
		{"-fig 1 -graphs 2", 2, "flag provided but not defined: -graphs"},
		{"", 2, "Usage of ftexp"},
	} {
		code, out, errw := ftexp(strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(errw, tc.want) {
			t.Errorf("ftexp %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errw, tc.code, tc.want)
		}
		if out != "" {
			t.Errorf("ftexp %s: rejected run wrote to stdout: %q", tc.args, out)
		}
	}
}

// The flag surface is capped: a new flag has to retire another.
func TestFlagCount(t *testing.T) {
	code, _, usage := ftexp("-h")
	if code != 0 {
		t.Fatalf("-h exits %d", code)
	}
	flags := 0
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags > 28 {
		t.Errorf("ftexp registers %d flags, want <= 28", flags)
	}
}
