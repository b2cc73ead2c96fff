package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ftsched/internal/service"
)

// postMission creates a mission and returns its id.
func postMission(t *testing.T, h http.Handler, body []byte) string {
	t.Helper()
	rec := do(h, http.MethodPost, "/missions", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /missions: %d %s", rec.Code, rec.Body.String())
	}
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.State != "accepted" || acc.ID == "" {
		t.Fatalf("POST /missions: unexpected body %s", rec.Body.String())
	}
	return acc.ID
}

// awaitMission polls GET /missions/{id} until the mission leaves the running
// state, returning the final report bytes.
func awaitMission(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := do(h, http.MethodGet, "/missions/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /missions/%s: %d %s", id, rec.Code, rec.Body.String())
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != service.MissionRunning {
			return rec.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("mission %s still running after 30s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMissionShardedByteIdentical is the mission sharding guarantee: the
// same POST /missions produces the same id, the same final report and the
// same JSONL event log on a standalone server and on 1-, 2- and 4-shard
// deployments at different worker counts — and the coordinator routes the
// reads to the one shard that owns the mission.
func TestMissionShardedByteIdentical(t *testing.T) {
	for _, policy := range []string{"static", "reschedule"} {
		t.Run(policy, func(t *testing.T) {
			body := missionBody("mcftsa", 1, policy)

			single := service.New(service.Config{Workers: 1})
			t.Cleanup(single.Close)
			id := postMission(t, single, body)
			wantReport := awaitMission(t, single, id)
			wantEvents := do(single, http.MethodGet, "/missions/"+id+"/events", nil).Body.Bytes()
			if len(wantEvents) == 0 {
				t.Fatal("single server: empty event log")
			}

			for _, n := range []int{1, 2, 4} {
				c, shards := newDeployment(t, n, service.Config{Workers: 1 + n%3})
				gotID := postMission(t, c, body)
				if gotID != id {
					t.Fatalf("%d shards: mission id %s, single server minted %s", n, gotID, id)
				}
				gotReport := awaitMission(t, c, gotID)
				if !bytes.Equal(gotReport, wantReport) {
					t.Fatalf("%d shards: report differs:\n%s\nvs\n%s", n, gotReport, wantReport)
				}
				gotEvents := do(c, http.MethodGet, "/missions/"+gotID+"/events", nil).Body.Bytes()
				if !bytes.Equal(gotEvents, wantEvents) {
					t.Fatalf("%d shards: event log differs:\n%s\nvs\n%s", n, gotEvents, wantEvents)
				}

				// Idempotent re-POST: a hit on exactly the owning shard.
				rec := do(c, http.MethodPost, "/missions", body)
				if rec.Code != http.StatusAccepted || rec.Header().Get(service.CacheStatusHeader) != "hit" {
					t.Fatalf("%d shards: re-POST got %d cache=%q", n, rec.Code, rec.Header().Get(service.CacheStatusHeader))
				}

				// Exactly one shard holds the mission state, and it is the one
				// RouteFingerprint picks from the id.
				fp, err := service.ParseMissionID(gotID)
				if err != nil {
					t.Fatal(err)
				}
				owner := RouteFingerprint(fp, n)
				for i, s := range shards {
					st := serverStats(t, s)
					if want := map[bool]int{true: 1, false: 0}[i == owner]; st.Missions != want {
						t.Fatalf("%d shards: shard %d holds %d missions, want %d (owner %d)",
							n, i, st.Missions, want, owner)
					}
				}

				// The merged /stats view counts the deployment's missions.
				cs := coordStats(t, c)
				if cs.Merged.Missions != 1 || cs.Merged.MissionRequests != 2 {
					t.Fatalf("%d shards: merged stats missions=%d mission_requests=%d, want 1 and 2",
						n, cs.Merged.Missions, cs.Merged.MissionRequests)
				}
			}
		})
	}
}

func serverStats(t *testing.T, s *service.Server) service.Stats {
	t.Helper()
	rec := do(s, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	var st service.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMissionCoordinatorDoor pins the door behavior for the mission surface:
// malformed POST bodies and malformed ids never reach a shard, and unknown
// (but well-formed) ids 404 from the owning shard.
func TestMissionCoordinatorDoor(t *testing.T) {
	c, shards := newDeployment(t, 3, service.Config{})

	rec := do(c, http.MethodPost, "/missions", []byte(`{"scheduler": "mcftsa"}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed POST: %d", rec.Code)
	}
	rec = do(c, http.MethodGet, "/missions/zz", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d", rec.Code)
	}
	for i, s := range shards {
		if st := serverStats(t, s); st.Requests != 0 || st.MissionRequests != 0 {
			t.Fatalf("shard %d saw traffic: %+v", i, st)
		}
	}

	unknown := fmt.Sprintf("%032x", 12345)
	rec = do(c, http.MethodGet, "/missions/"+unknown, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d %s", rec.Code, rec.Body.String())
	}
}

// TestMissionRePostRoutedFromDoorIndex: three identical POST /missions to a
// door over two in-process shards get one 202 body. The door decodes the
// first two and hands them to the owner; the second comes back a hit, which
// admits the body to the door's index, and the third is routed from there.
func TestMissionRePostRoutedFromDoorIndex(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	body := missionBody("ftsa", 1, "static")
	first := do(c, http.MethodPost, "/missions", body)
	if first.Code != http.StatusAccepted {
		t.Fatalf("POST /missions: %d %s", first.Code, first.Body.String())
	}
	for i := 2; i <= 3; i++ {
		rec := do(c, http.MethodPost, "/missions", body)
		if rec.Code != http.StatusAccepted || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("POST %d: %d %q, first POST %q", i, rec.Code, rec.Body.String(), first.Body.String())
		}
	}
	st := coordStats(t, c)
	m := st.Merged
	if st.Door.BodyHits != 1 || st.Door.Requests != 3 || m.MissionRequests != 3 || m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Fatalf("door %+v, merged mission_requests %d misses %d hits %d; want 1 body hit of 3, 3 mission requests, 1 miss, 2 hits",
			st.Door, m.MissionRequests, m.CacheMisses, m.CacheHits)
	}
	if m.Requests != m.CacheHits+m.CacheMisses+m.ClientErrors+m.InternalErrors+m.CancelledRequests {
		t.Fatalf("merged ledger does not conserve: %+v", m)
	}
}

// TestMissionIDEitherCaseThroughDoor: the door routes an upper-cased mission
// id to the owning shard, and both mission reads answer it with the bytes
// of the id as minted.
func TestMissionIDEitherCaseThroughDoor(t *testing.T) {
	c, _ := newDeployment(t, 2, service.Config{})
	id := postMission(t, c, missionBody("mcftsa", 1, "reschedule"))
	awaitMission(t, c, id)
	upper := strings.ToUpper(id)
	if upper == id {
		t.Fatalf("id %s has no hex letter to upper-case", id)
	}
	for _, suffix := range []string{"", "/events"} {
		want := do(c, http.MethodGet, "/missions/"+id+suffix, nil)
		got := do(c, http.MethodGet, "/missions/"+upper+suffix, nil)
		if want.Code != http.StatusOK || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET /missions/{id}%s: upper-case id %d %q, minted id %d %q",
				suffix, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}
