package coord

import (
	"fmt"
	"strings"
)

// endpoint describes one row of the coordinator's HTTP surface for the
// generated documentation table; the docs drift test compares docs/API.md
// against EndpointTable, so the documented behavior cannot go stale.
type endpoint struct {
	method, path, behavior string
}

const cachedBehavior = "digest the body: a known repeat is routed without a decode; otherwise decode + fingerprint at the door and hand the decoded request to the owning shard (a remote shard is forwarded the bytes)"

// endpoints lists the coordinator routes in documentation order. Keep it in
// sync with the mux registrations in New.
var endpoints = []endpoint{
	{"POST", "/schedule", cachedBehavior},
	{"POST", "/schedule/batch", "decode once, split per item fingerprint, fan out sub-batches, merge items in request order"},
	{"POST", "/evaluate", cachedBehavior},
	{"POST", "/tune", cachedBehavior},
	{"POST", "/missions", cachedBehavior + "; the mission id is the fingerprint, so reads route themselves"},
	{"GET", "/missions/{id}", "parse the id as a fingerprint, forward to the shard that owns the mission"},
	{"GET", "/missions/{id}/events", "parse the id as a fingerprint, forward to the shard that owns the mission"},
	{"GET", "/scenarios", "answered at the door from the process-global scenario-kind table (identical on every shard)"},
	{"GET", "/healthz", "ok only when every shard is ok"},
	{"GET", "/stats", "door counters + conservation-preserving merged view + raw per-shard stats"},
}

// EndpointTable renders the coordinator surface as a GitHub-flavored
// markdown table for docs/API.md's generated-table markers.
func EndpointTable() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Coordinator behavior |\n")
	b.WriteString("|---|---|---|\n")
	for _, e := range endpoints {
		fmt.Fprintf(&b, "| %s | `%s` | %s |\n", e.method, e.path, e.behavior)
	}
	return b.String()
}
