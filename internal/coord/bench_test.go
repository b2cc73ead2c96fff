package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"ftsched/internal/service"
	"ftsched/internal/workload"
)

// BenchmarkDoorSchedule times a paper-sized /schedule through the door and
// two in-process shards: a byte-identical repeat (no decode anywhere), a
// never-seen seed on the same instance (one decode, at the door, from pooled
// storage) and a never-seen instance — the last edge's volume changed, so
// that the graph decodes again.
func BenchmarkDoorSchedule(b *testing.B) {
	inst, err := workload.NewInstance(rand.New(rand.NewSource(5)), workload.DefaultPaperConfig(1.0))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(&service.ScheduleRequest{
		Instance:  service.Instance{Graph: inst.Graph, Platform: inst.Platform, Costs: inst.Costs},
		Scheduler: "ftsa", Epsilon: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	deploy := func(b *testing.B) *Coordinator {
		shards := make([]http.Handler, 2)
		for i := range shards {
			s := service.New(service.Config{})
			b.Cleanup(s.Close)
			shards[i] = s
		}
		return New(shards, service.Config{})
	}
	post := func(c *Coordinator, body []byte, want string) {
		rec := do(c, http.MethodPost, "/schedule", body)
		if got := rec.Header().Get(service.CacheStatusHeader); rec.Code != http.StatusOK || got != want {
			b.Fatalf("status %d cache %q, want 200 %q", rec.Code, got, want)
		}
	}
	b.Run("repeat", func(b *testing.B) {
		c := deploy(b)
		post(c, body, "miss")
		post(c, body, "hit")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(c, body, "hit")
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := deploy(b)
		head := bytes.TrimSuffix(body, []byte("}"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(c, fmt.Appendf(nil, `%s,"seed":%d}`, head, i+1), "miss")
		}
	})
	b.Run("miss-new-instance", func(b *testing.B) {
		c := deploy(b)
		key := []byte(`"volume":`)
		at := bytes.LastIndex(body, key) + len(key)
		end := at + bytes.IndexAny(body[at:], ",}")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(c, fmt.Appendf(nil, "%s%d%s", body[:at], i+1, body[end:]), "miss")
		}
	})
}
