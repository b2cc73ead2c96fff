// Package trace defines the recorded failure-trace format: the JSONL log of
// processor crashes that lets users evaluate schedules against their own
// incident history instead of a synthetic failure law.
//
// A trace is a sequence of events, one JSON object per line:
//
//	{"proc":3,"time":1250.5}
//	{"proc":4,"time":1250.5,"group":"rack-2"}
//	{"proc":9,"time":8100}
//
// proc is the zero-based processor id, time the crash time in schedule time
// units (0 means dead from the start), and group an optional correlation tag:
// events sharing a non-empty group crashed together (one incident — a rack
// power feed, a bad rollout) and are kept together when a trace is bootstrap-
// resampled across Monte-Carlo trials. Blank lines and lines starting with
// '#' are skipped, so traces can carry comments.
//
// The package deliberately knows nothing about schedules or simulation; the
// sim package's trace scenario kind consumes []Event. Note the distinction
// from sim.Trace, which is an *execution* event log produced by a replay —
// this package describes failures fed *into* one.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Event is one recorded processor crash.
type Event struct {
	// Proc is the zero-based processor id that crashed.
	Proc int `json:"proc"`
	// Time is the crash time in schedule time units; 0 means the
	// processor was dead before the schedule started.
	Time float64 `json:"time"`
	// Group optionally names the incident this crash belongs to; events
	// sharing a non-empty group are resampled as one unit.
	Group string `json:"group,omitempty"`
}

// maxEvents bounds a parsed trace. Real incident logs are short (one event
// per crashed processor); the bound exists so a malformed or hostile input
// cannot balloon memory before validation rejects it.
const maxEvents = 1 << 20

// Parse reads a JSONL failure trace, validating every event. Errors carry
// the 1-based line number. Blank lines and '#' comments are skipped; a trace
// with no events at all is an error (there is nothing to replay).
func Parse(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after event", line)
		}
		if err := checkEvent(ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if len(events) >= maxEvents {
			return nil, fmt.Errorf("trace: line %d: more than %d events", line, maxEvents)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: no events")
	}
	return events, nil
}

// ParseFile reads a JSONL failure trace from a file.
func ParseFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	defer f.Close()
	return Parse(f)
}

func checkEvent(ev Event) error {
	if ev.Proc < 0 {
		return fmt.Errorf("negative processor id %d", ev.Proc)
	}
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
		return fmt.Errorf("non-finite crash time")
	}
	if ev.Time < 0 {
		return fmt.Errorf("negative crash time %g", ev.Time)
	}
	return nil
}

// Check validates a slice of events the way Parse does — the entry point for
// traces that arrive pre-decoded (e.g. embedded in a JSON request body).
func Check(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("trace: no events")
	}
	if len(events) > maxEvents {
		return fmt.Errorf("trace: more than %d events", maxEvents)
	}
	for i, ev := range events {
		if err := checkEvent(ev); err != nil {
			return fmt.Errorf("trace: event %d: %v", i, err)
		}
	}
	return nil
}

// MaxProc returns the largest processor id in events (-1 when empty) — the
// minimum platform size a trace needs is MaxProc+1.
func MaxProc(events []Event) int {
	max := -1
	for _, ev := range events {
		if ev.Proc > max {
			max = ev.Proc
		}
	}
	return max
}

// Incidents groups events into correlated incidents: events sharing a
// non-empty Group form one incident (in first-appearance order), every
// ungrouped event is its own. Bootstrap resampling draws whole incidents so
// correlated crashes stay correlated.
func Incidents(events []Event) [][]Event {
	var out [][]Event
	byGroup := make(map[string]int)
	for _, ev := range events {
		if ev.Group == "" {
			out = append(out, []Event{ev})
			continue
		}
		i, ok := byGroup[ev.Group]
		if !ok {
			i = len(out)
			byGroup[ev.Group] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], ev)
	}
	return out
}

// FromCSV converts a comma-separated incident log — lines of
// "proc,time[,group]", with an optional header row — into trace events. It
// is the converter for the common spreadsheet/SQL export shape; the result
// passes Check.
func FromCSV(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		fields := strings.Split(raw, ",")
		if line == 1 && looksLikeHeader(fields) {
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("trace: csv line %d: want proc,time[,group], got %d fields", line, len(fields))
		}
		var ev Event
		if _, err := fmt.Sscanf(strings.TrimSpace(fields[0]), "%d", &ev.Proc); err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad processor id %q", line, fields[0])
		}
		if _, err := fmt.Sscanf(strings.TrimSpace(fields[1]), "%g", &ev.Time); err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad crash time %q", line, fields[1])
		}
		if len(fields) == 3 {
			ev.Group = strings.TrimSpace(fields[2])
		}
		if err := checkEvent(ev); err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: no events")
	}
	return events, nil
}

func looksLikeHeader(fields []string) bool {
	for _, f := range fields {
		switch strings.ToLower(strings.TrimSpace(f)) {
		case "proc", "processor", "time", "crash_time", "group", "incident":
			return true
		}
	}
	return false
}
