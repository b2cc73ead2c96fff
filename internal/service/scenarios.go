package service

import (
	"fmt"
	"net/http"
	"strings"

	"ftsched/internal/sim"
)

// ScenariosResponse is the body of GET /scenarios: every failure-scenario
// kind, in table order. The rows serialize their documented surface only;
// encoding/json skips their unexported behaviors.
type ScenariosResponse struct {
	Kinds []sim.ScenarioKindReg `json:"kinds"`
}

// ScenariosHandler serves GET /scenarios: scenario-kind discovery, generated
// from the scenario-kind table so the response can never go stale. The table
// is process-global and fixed after init, so any front door can serve it
// directly — the coordinator answers at the door instead of hopping to a
// shard. Like /stats and /healthz it is an uncounted read — no request
// counter, no cache (the body is already deterministic).
func ScenariosHandler(w http.ResponseWriter, r *http.Request) {
	body, err := Encode(&ScenariosResponse{Kinds: sim.ScenarioKindRegs()})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// ScenarioKindTable renders the scenario-kind table as a GitHub-flavored
// markdown table. docs/API.md embeds it between generated-table markers, and
// a drift test asserts the embedded copy matches, so the documented kind list
// cannot go stale.
func ScenarioKindTable() string {
	var b strings.Builder
	b.WriteString("| Kind | Flag form | Parameters | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, k := range sim.ScenarioKindRegs() {
		name := k.Name
		if len(k.Aliases) > 0 {
			name += " (alias " + strings.Join(k.Aliases, ", ") + ")"
		}
		params := make([]string, 0, len(k.Params))
		for _, p := range k.Params {
			entry := fmt.Sprintf("`%s` (%s)", p.Name, p.Type)
			if p.Optional {
				entry += " optional"
			}
			params = append(params, entry)
		}
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n",
			name, k.FlagForm, strings.Join(params, ", "), k.Summary)
	}
	return b.String()
}
