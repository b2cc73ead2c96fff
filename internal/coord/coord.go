package coord

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ftsched/internal/service"
)

// Coordinator fronts N worker shards. Each POST body is decoded and
// validated once at the door (malformed input 400s without touching a
// shard), fingerprinted with the same canonical fingerprint the shards' own
// caches key on, and served by the shard RouteFingerprint picks: an
// in-process service.Server takes the door's decoded request over, any other
// shard is forwarded the bytes. A body the door has already seen served as a
// hit is not decoded at all — its digest still names the fingerprint.
// Responses stream straight from the shard to the client, headers included,
// so a routed response is byte-identical to what the shard alone would have
// served.
type Coordinator struct {
	shards []http.Handler
	// cfg is the servers' Config, defaulted. The door applies MaxBodyBytes,
	// MaxTasks and MaxBatchItems, so a refusal costs no shard anything and
	// reads like a standalone server's, and Log gets one line per routed
	// request; the other guards (trials, candidates) are the shard's.
	cfg service.Config
	mux *http.ServeMux
	// front is the door's body-digest index: digest → routing fingerprint of
	// the bodies that came back from a shard as cache hits. A body's
	// fingerprint never changes, so an alias is never wrong and is dropped
	// only to make room.
	front *service.Cache[service.BodyDigest, service.Fingerprint]

	// Door counters: requests received, and the ones terminated at the door
	// (malformed or over-limit, all 4xx). Routed requests are counted by the
	// shard that serves them; the stats merge folds the door rejections back
	// in so the merged view conserves.
	requests      atomic.Uint64
	rejected      atomic.Uint64
	batchRequests atomic.Uint64
	// bodyHits counts the requests routed from the front index, without a
	// door decode.
	bodyHits atomic.Uint64
	// lat is the latency the deployment's clients saw, recorded at the door.
	lat service.Latency
}

// doorAliasesPerShard bounds the door's front index per shard behind it: as
// many bodies as a shard's response cache holds entries by default.
const doorAliasesPerShard = 4096

// New creates a Coordinator over the given shard handlers (in-process
// service.Servers, Proxy handlers for remote workers, or a mix) that refuses
// bodies under the same limits as a service.Server built from cfg. It panics
// if shards is empty — a coordinator with nothing to route to is a
// construction error, not a runtime condition.
func New(shards []http.Handler, cfg service.Config) *Coordinator {
	if len(shards) == 0 {
		panic("coord.New: no shards")
	}
	c := &Coordinator{
		shards: shards, cfg: cfg.WithDefaults(), mux: http.NewServeMux(),
		front: service.NewFrontIndex[service.Fingerprint](doorAliasesPerShard*len(shards), 16),
	}
	for _, ep := range service.Endpoints() {
		h := c.cached(ep)
		if ep.Path() == "/schedule/batch" {
			h = c.handleBatch
		}
		c.mux.HandleFunc("POST "+ep.Path(), c.timed(ep.Path(), h))
	}
	c.mux.HandleFunc("GET /missions/{id}", c.missionByID)
	c.mux.HandleFunc("GET /missions/{id}/events", c.missionByID)
	// /scenarios is generated from the process-global scenario-kind table,
	// identical on every shard, so the door answers it without a shard hop.
	c.mux.HandleFunc("GET /scenarios", service.ScenariosHandler)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /stats", c.handleStats)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Route exposes the routing decision for a fingerprint; tests and the
// verbose log use it.
func (c *Coordinator) Route(fp service.Fingerprint) int {
	return RouteFingerprint(fp, len(c.shards))
}

// timed records a POST's latency at the door, door work included, whenever
// its response carries a cache status: exactly the requests a shard records,
// with a split batch counted once.
func (c *Coordinator) timed(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		if status := w.Header().Get(service.CacheStatusHeader); status != "" {
			c.lat.Record(path, status, time.Since(start))
		}
	}
}

// missionByID routes the mission read endpoints. A mission id IS the hex of
// its routing fingerprint, so the owner of an id is recomputed from the id
// alone — no shared state, and the GET lands on the same shard the POST
// created the mission on at any shard count. Like the shards themselves,
// the door keeps mission reads out of the request counters (they are polls,
// not work), so a malformed id is refused with an uncounted 400 here rather
// than through reject.
func (c *Coordinator) missionByID(w http.ResponseWriter, r *http.Request) {
	fp, err := service.ParseMissionID(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	c.forward(w, r, c.route(r, fp), nil)
}

// cached builds the door handler of every POST endpoint but
// /schedule/batch, which handleBatch splits by item. A body whose digest the
// front index knows is routed by the fingerprint stored there and forwarded
// as bytes — the shard's own front index answers a cached endpoint's repeat,
// so it costs no decode anywhere, and a mission re-POST costs the shard one.
// Any other body is decoded, validated and fingerprinted here, so that
// nothing malformed or unroutable ever occupies a worker; an in-process
// shard then takes the decoded request over (one decode per deployment),
// while a Proxy is sent the bytes and decodes them again, because a remote
// server must not trust a forwarded fingerprint.
func (c *Coordinator) cached(ep *service.Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		buf, ok := c.readBody(w, r)
		if !ok {
			return
		}
		defer service.ReleaseBody(buf)
		body := buf.Bytes()
		digest := ep.Digest(body)
		if fp, ok := c.front.Get(digest); ok {
			c.bodyHits.Add(1)
			c.forward(w, r, c.route(r, fp), body)
			return
		}
		d, err := ep.Decode(body)
		if err != nil {
			c.reject(w, http.StatusBadRequest, err)
			return
		}
		if err := c.cfg.CheckTasks(d.Tasks()); err != nil {
			d.Release()
			c.reject(w, http.StatusBadRequest, err)
			return
		}
		fp := d.Fingerprint()
		shard := c.route(r, fp)
		if local, ok := c.shards[shard].(*service.Server); ok {
			local.ServeDecoded(w, r, d, digest)
		} else {
			d.Release()
			c.forward(w, r, shard, body)
		}
		// Admit on the second sighting only — the response came back a hit —
		// so traffic that never repeats leaves the index empty.
		if w.Header().Get(service.CacheStatusHeader) == "hit" {
			c.front.Put(digest, fp)
		}
	}
}

// route picks the shard for a fingerprint and writes the verbose log's
// routing line.
func (c *Coordinator) route(r *http.Request, fp service.Fingerprint) int {
	shard := c.Route(fp)
	if c.cfg.Log != nil {
		c.cfg.Log.Printf("%s %s fp=%x shard=%d/%d", r.RemoteAddr, r.URL.Path, fp[:4], shard, len(c.shards))
	}
	return shard
}

// readBody buffers the request body under MaxBodyBytes (service.ReadBody)
// in a pooled buffer the caller returns with service.ReleaseBody. ok is false
// when the refusal was written.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf, status, err := service.ReadBody(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		c.reject(w, status, err)
		return nil, false
	}
	return buf, true
}

// reject terminates a request at the door with the refusal a standalone
// server would write.
func (c *Coordinator) reject(w http.ResponseWriter, status int, err error) {
	c.rejected.Add(1)
	service.WriteError(w, status, err)
}

// forward replays the buffered body against the shard, writing the shard's
// response (status, headers, body) directly to the client.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, shard int, body []byte) {
	req := r.Clone(r.Context())
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	c.shards[shard].ServeHTTP(w, req)
}
