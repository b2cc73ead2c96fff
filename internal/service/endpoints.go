package service

import (
	"fmt"
	"strings"
)

// getRoutes are the GET rows of the HTTP surface in documentation order.
// With the POST rows (endpoints) they are the single source of truth the
// docs drift test compares docs/API.md against.
var getRoutes = []struct{ path, description string }{
	{"/missions/{id}", "poll mission state; once finished, the byte-deterministic final report"},
	{"/missions/{id}/events", "stream the mission's ordered event log as chunked JSONL (plan/replan, task, crash, complete/abort)"},
	{"/scenarios", "scenario-kind discovery: every registered failure-scenario kind with its flag form, parameters and docs"},
	{"/healthz", "liveness probe"},
	{"/stats", "cache hit rate, per-endpoint and per-scheduler counters, queue depth, latency quantiles"},
}

// EndpointTable renders the HTTP surface as a GitHub-flavored markdown
// table. docs/API.md embeds it between generated-table markers, and a drift
// test asserts the embedded copy matches, so the documented endpoint list
// cannot go stale.
func EndpointTable() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Cache domain | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, e := range endpoints {
		fmt.Fprintf(&b, "| POST | `%s` | %s | %s |\n", e.path, e.domain, e.description)
	}
	for _, e := range getRoutes {
		fmt.Fprintf(&b, "| GET | `%s` | — | %s |\n", e.path, e.description)
	}
	return b.String()
}
