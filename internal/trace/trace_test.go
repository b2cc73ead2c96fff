package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestParseFixture(t *testing.T) {
	events, err := ParseFile("testdata/rack_outage.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Proc: 2, Time: 0},
		{Proc: 4, Time: 1250.5, Group: "rack-1"},
		{Proc: 5, Time: 1250.5, Group: "rack-1"},
		{Proc: 6, Time: 1251, Group: "rack-1"},
		{Proc: 9, Time: 8100},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed %+v, want %+v", events, want)
	}
}

func TestParseRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":         "",
		"comments only": "# nothing here\n\n",
		"bad json":      `{"proc":1,"time":`,
		"unknown field": `{"proc":1,"time":2,"host":"a"}`,
		"negative proc": `{"proc":-1,"time":2}`,
		"negative time": `{"proc":1,"time":-2}`,
		"trailing data": `{"proc":1,"time":2}{"proc":2,"time":3}`,
		"array form":    `[{"proc":1,"time":2}]`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(in)); err == nil {
				t.Fatalf("Parse accepted %q", in)
			}
		})
	}
}

func TestParseErrorCarriesLine(t *testing.T) {
	in := "{\"proc\":1,\"time\":2}\n# fine so far\n{\"proc\":-3,\"time\":2}\n"
	_, err := Parse(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not name line 3", err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	events := []Event{
		{Proc: 0, Time: 0},
		{Proc: 3, Time: 17.25, Group: "az-b"},
		{Proc: 3, Time: 99, Group: "az-b"},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, events) {
		t.Fatalf("round trip changed events: %+v -> %+v", events, again)
	}
}

func TestIncidents(t *testing.T) {
	events := []Event{
		{Proc: 1, Time: 5},
		{Proc: 2, Time: 9, Group: "r"},
		{Proc: 3, Time: 7},
		{Proc: 4, Time: 9, Group: "r"},
		{Proc: 5, Time: 20, Group: "s"},
	}
	inc := Incidents(events)
	if len(inc) != 4 {
		t.Fatalf("got %d incidents, want 4", len(inc))
	}
	if len(inc[1]) != 2 || inc[1][0].Proc != 2 || inc[1][1].Proc != 4 {
		t.Fatalf("group incident wrong: %+v", inc[1])
	}
	if len(inc[3]) != 1 || inc[3][0].Proc != 5 {
		t.Fatalf("singleton group incident wrong: %+v", inc[3])
	}
}

func TestFromCSV(t *testing.T) {
	in := "proc,time,group\n2,0,\n4,1250.5,rack-1\n# comment\n9,8100\n"
	events, err := FromCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Proc: 2, Time: 0},
		{Proc: 4, Time: 1250.5, Group: "rack-1"},
		{Proc: 9, Time: 8100},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed %+v, want %+v", events, want)
	}
}

func TestFromCSVRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":       "",
		"bad proc":    "x,1\n",
		"bad time":    "1,x\n",
		"one field":   "3\n",
		"four fields": "1,2,g,extra\n",
		"neg time":    "1,-4\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := FromCSV(strings.NewReader(in)); err == nil {
				t.Fatalf("FromCSV accepted %q", in)
			}
		})
	}
}

func TestMaxProc(t *testing.T) {
	if got := MaxProc(nil); got != -1 {
		t.Fatalf("MaxProc(nil) = %d, want -1", got)
	}
	if got := MaxProc([]Event{{Proc: 2}, {Proc: 7}, {Proc: 1}}); got != 7 {
		t.Fatalf("MaxProc = %d, want 7", got)
	}
}

func TestSorted(t *testing.T) {
	events := []Event{{Proc: 5, Time: 9}, {Proc: 1, Time: 9}, {Proc: 8, Time: 2}}
	got := Sorted(events)
	want := []Event{{Proc: 8, Time: 2}, {Proc: 1, Time: 9}, {Proc: 5, Time: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted = %+v, want %+v", got, want)
	}
	if events[0].Proc != 5 {
		t.Fatal("Sorted mutated its input")
	}
}

func TestCheck(t *testing.T) {
	if err := Check([]Event{{Proc: 0, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := Check(nil); err == nil {
		t.Fatal("Check accepted an empty trace")
	}
	if err := Check([]Event{{Proc: -1, Time: 1}}); err == nil {
		t.Fatal("Check accepted a negative processor id")
	}
}

// Write renders events in the canonical JSONL form Parse reads, one event
// per line. Parse(Write(events)) round-trips exactly.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	return nil
}

// Sorted returns a copy of events ordered by (time, proc, group) — the
// canonical order for display and diffing. Parse preserves file order, which
// resampling depends on, so sorting is explicit and never implicit.
func Sorted(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Group < out[j].Group
	})
	return out
}
