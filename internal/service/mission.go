package service

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ftsched/internal/lazyrand"
	"ftsched/internal/mission"
	"ftsched/internal/sim"
)

// MissionRequest is the body of POST /missions: a full scheduling request
// plus one failure scenario to execute the mission against and the reaction
// policy. A mission is a single online execution (one scenario draw), not a
// Monte-Carlo batch — /evaluate's policies field is the batch form.
type MissionRequest struct {
	ScheduleRequest
	// Scenario selects the failure-scenario generator the mission draws its
	// one scenario from.
	Scenario sim.ScenarioSpec `json:"scenario"`
	// ScenarioSeed seeds the draw: the mission faces exactly the scenario
	// trial 0 of an /evaluate with eval_seed == scenario_seed would face.
	ScenarioSeed int64 `json:"scenario_seed,omitempty"`
	// MissionPolicy is "static" or "reschedule" (default "reschedule").
	MissionPolicy string `json:"mission_policy,omitempty"`
	// TaskEvents adds one event per task completion to the event log.
	TaskEvents bool `json:"task_events,omitempty"`
}

// Validate cross-checks the decoded request: the scheduling part first, then
// the mission parameters.
func (req *MissionRequest) Validate() error {
	if err := req.ScheduleRequest.Validate(); err != nil {
		return err
	}
	if err := req.rejectScheduleOnlyFields("/missions"); err != nil {
		return err
	}
	if _, err := mission.ParsePolicy(req.MissionPolicy); err != nil {
		return err
	}
	return req.checkScenario(req.Scenario)
}

// MissionFingerprint digests everything a mission's event log and final
// report depend on. The "mission" domain tag keeps the keyspace disjoint
// from the other endpoints; the policy is canonicalized so an omitted
// mission_policy and an explicit "reschedule" name one mission.
func MissionFingerprint(req *MissionRequest) Fingerprint {
	f := instanceOf(&req.Instance)
	f.str("mission")
	f.str(req.canonicalScheduler())
	f.i64(int64(req.Epsilon))
	policy, seed := req.canonicalPolicySeed()
	f.str(policy)
	f.i64(seed)
	mp, _ := mission.ParsePolicy(req.MissionPolicy) // validated at decode
	f.str(string(mp))
	f.str(req.Scenario.String())
	f.i64(req.ScenarioSeed)
	if req.TaskEvents {
		f.i64(1)
	} else {
		f.i64(0)
	}
	return f.sum()
}

// MissionID renders a mission fingerprint as the 32-hex-digit identifier
// used in /missions/{id} paths. Deriving the id from the fingerprint makes
// POST /missions idempotent and lets the coordinator route GETs to the
// owning shard without shared state.
func MissionID(fp Fingerprint) string { return hex.EncodeToString(fp[:]) }

// ParseMissionID inverts MissionID; it rejects anything that is not exactly
// 32 hex digits.
func ParseMissionID(id string) (Fingerprint, error) {
	var fp Fingerprint
	if len(id) != 2*len(fp) {
		return fp, fmt.Errorf("mission id must be %d hex digits, got %d bytes", 2*len(fp), len(id))
	}
	if _, err := hex.Decode(fp[:], []byte(id)); err != nil {
		return fp, fmt.Errorf("mission id: %w", err)
	}
	return fp, nil
}

// Mission lifecycle states as reported by GET /missions/{id}.
const (
	MissionRunning = "running"
	MissionDone    = "done"
	MissionFailed  = "failed"
)

// MissionReport is the final body of GET /missions/{id} once the mission
// finished. It is a pure function of the request — byte-identical across
// runs, worker counts and shard counts.
type MissionReport struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Scheduler is the algorithm's display name; MissionPolicy the resolved
	// reaction policy.
	Scheduler     string `json:"scheduler"`
	Epsilon       int    `json:"epsilon"`
	MissionPolicy string `json:"mission_policy"`
	Tasks         int    `json:"tasks"`
	Procs         int    `json:"procs"`
	Scenario      string `json:"scenario"`
	ScenarioSeed  int64  `json:"scenario_seed"`
	// LowerBound and UpperBound are the initial plan's latency bounds — the
	// frame Outcome.Latency lives in.
	LowerBound float64 `json:"lower_bound,omitempty"`
	UpperBound float64 `json:"upper_bound,omitempty"`
	// Outcome is the mission's final report; absent when State is "failed".
	Outcome *mission.Outcome `json:"outcome,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// missionState is one retained mission: an append-only event log plus the
// final report. notify is closed and replaced on every append, so any
// number of streaming readers can wait for "more than N lines" without the
// writer tracking them.
type missionState struct {
	id string

	mu     sync.Mutex
	state  string // MissionRunning/MissionDone/MissionFailed
	lines  [][]byte
	report []byte // final GET body; nil while running
	notify chan struct{}
}

func newMissionState(id string) *missionState {
	return &missionState{id: id, state: MissionRunning, notify: make(chan struct{})}
}

// appendLine records one event-log line (already a complete JSON document).
func (st *missionState) appendLine(line []byte) {
	st.mu.Lock()
	st.lines = append(st.lines, line)
	close(st.notify)
	st.notify = make(chan struct{})
	st.mu.Unlock()
}

// finishMission publishes the final report and wakes streaming readers.
func (st *missionState) finish(state string, report []byte) {
	st.mu.Lock()
	st.state = state
	st.report = report
	close(st.notify)
	st.notify = make(chan struct{})
	st.mu.Unlock()
}

// snapshot returns the lines at or past from, the current state, and the
// channel that signals further appends. Lines are immutable once appended,
// so the caller may write them after releasing the lock.
func (st *missionState) snapshot(from int) (lines [][]byte, state string, notify chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lines[from:], st.state, st.notify
}

// missionDecoded is the /missions row's Decoded. A served mission outlives
// its response, so it keeps its pooled storage for the collector.
func missionDecoded(req *MissionRequest) *Decoded {
	fp := MissionFingerprint(req)
	return &Decoded{
		fp:         fp,
		tasks:      req.Graph.NumTasks(),
		schedulers: []string{req.canonicalScheduler()},
		serve: func(s *Server, w http.ResponseWriter) (string, bool) {
			return s.createMission(w, req, MissionID(fp))
		},
		describe: req.describe,
	}
}

// createMission admits a mission and starts it on the pool. The mission id
// is a pure function of the request, so an existing state IS the response —
// an idempotent re-POST is a cache hit.
func (s *Server) createMission(w http.ResponseWriter, req *MissionRequest, id string) (string, bool) {
	s.missionMu.Lock()
	if _, exists := s.missions[id]; exists {
		s.missionMu.Unlock()
		s.hits.Add(1)
		return s.writeMissionAccepted(w, id, "hit")
	}
	if len(s.missions) >= s.cfg.MaxMissions && !s.evictOldestFinishedLocked() {
		s.missionMu.Unlock()
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("all %d retained missions are still running", s.cfg.MaxMissions), 1)
		return "", false
	}
	st := newMissionState(id)
	// Submit before inserting: a failed submit must not leave a phantom
	// mission that would make a retry a no-op "hit". missionMu spans both,
	// and TrySubmit never blocks, so the hold is brief.
	if err := s.pool.TrySubmit(func() { s.runMission(req, st) }); err != nil {
		s.missionMu.Unlock()
		s.writeError(w, refusedStatus(err), err, 1)
		return "", false
	}
	s.missions[id] = st
	s.missionOrder = append(s.missionOrder, id)
	s.missionMu.Unlock()
	s.misses.Add(1)
	return s.writeMissionAccepted(w, id, "miss")
}

// writeMissionAccepted writes the fixed POST /missions response:
// deterministic whether the mission was just created or already existed
// (the cache-status header tells them apart).
func (s *Server) writeMissionAccepted(w http.ResponseWriter, id, cacheStatus string) (string, bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheStatusHeader, cacheStatus)
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, `{"id":"`+id+`","state":"accepted"}`+"\n")
	return cacheStatus, true
}

// evictOldestFinishedLocked drops the oldest non-running mission, returning
// false when every retained mission is still running. Caller holds
// missionMu.
func (s *Server) evictOldestFinishedLocked() bool {
	for i, id := range s.missionOrder {
		st := s.missions[id]
		st.mu.Lock()
		finished := st.state != MissionRunning
		st.mu.Unlock()
		if finished {
			delete(s.missions, id)
			s.missionOrder = append(s.missionOrder[:i], s.missionOrder[i+1:]...)
			return true
		}
	}
	return false
}

// runMission executes one mission on a pool worker, streaming events into
// the state as they happen.
func (s *Server) runMission(req *MissionRequest, st *missionState) {
	report := MissionReport{
		ID:            st.id,
		Tasks:         req.Graph.NumTasks(),
		Procs:         req.Platform.NumProcs(),
		Scenario:      req.Scenario.String(),
		ScenarioSeed:  req.ScenarioSeed,
		Epsilon:       req.Epsilon,
		MissionPolicy: req.MissionPolicy,
	}
	pol, err := mission.ParsePolicy(req.MissionPolicy)
	if err == nil {
		report.MissionPolicy = string(pol)
	}
	out, ctl, err := s.executeMission(req, pol, st)
	if err != nil {
		report.State = MissionFailed
		report.Error = err.Error()
	} else {
		report.State = MissionDone
		report.Scheduler = ctl.InitialPlan().Algorithm
		report.LowerBound = ctl.InitialPlan().LowerBound()
		report.UpperBound = ctl.InitialPlan().UpperBound()
		report.Outcome = &out
	}
	body, merr := Encode(&report)
	if merr != nil {
		// A flat struct of numbers and strings cannot fail to encode; keep
		// the mission observable anyway.
		body = []byte(`{"id":"` + st.id + `","state":"failed","error":"encoding report"}` + "\n")
		report.State = MissionFailed
	}
	st.finish(report.State, body)
}

// executeMission draws the scenario and runs the controller.
func (s *Server) executeMission(req *MissionRequest, pol mission.Policy, st *missionState) (mission.Outcome, *mission.Controller, error) {
	gen, err := req.Scenario.Generator()
	if err != nil {
		return mission.Outcome{}, nil, err
	}
	m := req.Platform.NumProcs()
	sc := sim.NewScenario(m)
	var scratch sim.ScenarioScratch
	rng := lazyrand.New(sim.TrialSeed(req.ScenarioSeed, 0))
	if err := gen.FillScenario(rng, &sc, &scratch); err != nil {
		return mission.Outcome{}, nil, err
	}
	ctl, err := mission.NewController(mission.Spec{
		Graph:       req.Graph,
		Platform:    req.Platform,
		Costs:       req.Costs,
		Scheduler:   req.Scheduler,
		Epsilon:     req.Epsilon,
		SchedPolicy: req.Policy,
		Seed:        req.Seed,
		Policy:      pol,
		TaskEvents:  req.TaskEvents,
	})
	if err != nil {
		return mission.Outcome{}, nil, err
	}
	out, err := ctl.Run(sc, st.appendLine)
	if err != nil {
		return mission.Outcome{}, nil, err
	}
	return out, ctl, nil
}

// lookupMission resolves {id}, writing an uncounted 404/400 when absent
// (mission GETs do not count toward Requests, so their errors must not
// count either — see the Stats conservation invariant).
func (s *Server) lookupMission(w http.ResponseWriter, r *http.Request) *missionState {
	id := r.PathValue("id")
	fp, err := ParseMissionID(id)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil
	}
	s.missionMu.Lock()
	st := s.missions[MissionID(fp)] // an id parses in either hex case
	s.missionMu.Unlock()
	if st == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no mission %s", id))
		return nil
	}
	return st
}

func (s *Server) handleMissionGet(w http.ResponseWriter, r *http.Request) {
	st := s.lookupMission(w, r)
	if st == nil {
		return
	}
	st.mu.Lock()
	state, report, events := st.state, st.report, len(st.lines)
	st.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if state == MissionRunning {
		fmt.Fprintf(w, `{"id":"%s","state":"running","events":%d}%s`, st.id, events, "\n")
		return
	}
	w.Write(report)
}

// handleMissionEvents streams the mission's event log as chunked JSONL:
// every line already emitted, then new lines as they land, until the
// mission finishes or the client disconnects. The bytes (headers aside) are
// exactly the controller's event log — byte-identical for equal requests no
// matter when the stream was opened.
func (s *Server) handleMissionEvents(w http.ResponseWriter, r *http.Request) {
	st := s.lookupMission(w, r)
	if st == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		lines, state, notify := st.snapshot(sent)
		for _, line := range lines {
			w.Write(line)
			io.WriteString(w, "\n")
			sent++
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if state != MissionRunning {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}
