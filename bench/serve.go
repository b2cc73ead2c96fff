package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/coord"
	"ftsched/internal/load"
	"ftsched/internal/service"
)

// openSenders caps the requests an open loop keeps in flight. It is a cap,
// not a concurrency level: at 200 req/s and 5 ms a request, one is in flight
// on average. Two shards admit 2 x (workers + queue) >= 12 computations, so
// eight senders cannot draw a 429 even when a stall releases them at once.
const openSenders = 8

// deployment is a fresh server (or coordinator over shards) behind a real
// loopback listener, with the keep-alive client that drives it.
type deployment struct {
	handler http.Handler
	shards  int
	closeFn func()
	ts      *httptest.Server
	client  *http.Client
	target  load.URLTarget
}

func deploy(wl *workload, conns int) *deployment {
	target, closeFn := load.ShardedTarget(wl.Shards, wl.Config)
	d := &deployment{handler: target.(load.HandlerTarget).Handler, shards: wl.Shards, closeFn: closeFn}
	d.ts = httptest.NewServer(d.handler)
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	d.target = load.URLTarget{Base: d.ts.URL, Client: d.client}
	return d
}

// close shuts the deployment down and drops every reference to it, so that
// a collection frees what it retained. A second call does nothing.
func (d *deployment) close() {
	if d.ts == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.closeFn()
	*d = deployment{}
}

// stats reads GET /stats: the deployment-wide view and the per-shard views
// (one element for a bare server).
func (d *deployment) stats() (service.Stats, []service.Stats, error) {
	return readStats(d.target, d.shards >= 2)
}

// readStats is GET /stats on a bare server or, when sharded, a coordinator.
func readStats(t load.Target, sharded bool) (service.Stats, []service.Stats, error) {
	res := t.Do("/stats", nil)
	if res.Err != nil || res.Status != http.StatusOK {
		return service.Stats{}, nil, fmt.Errorf("GET /stats: status %d, err %v", res.Status, res.Err)
	}
	if sharded {
		var st coord.Stats
		if err := json.Unmarshal(res.Body, &st); err != nil {
			return service.Stats{}, nil, fmt.Errorf("GET /stats: %w", err)
		}
		return st.Merged, st.PerShard, nil
	}
	var st service.Stats
	if err := json.Unmarshal(res.Body, &st); err != nil {
		return service.Stats{}, nil, fmt.Errorf("GET /stats: %w", err)
	}
	return st, []service.Stats{st}, nil
}

// sample is one request as the client saw it.
type sample struct {
	index  uint64
	latNs  int64 // send (open loop: intended send) to last body byte
	lagNs  int64 // open loop: actual minus intended send time
	ok     bool  // 200 and no transport error
	hit    bool
	status int
}

// clientLog is what one sending goroutine records; nothing is shared while
// the clock runs.
type clientLog struct {
	samples []sample
	// resp holds the first response seen for each body key; a later response
	// to an equal body must be byte-identical.
	resp     map[string][]byte
	problems []string
}

func (c *clientLog) observe(index uint64, key string, res load.Result, latNs, lagNs int64) {
	s := sample{index: index, latNs: latNs, lagNs: lagNs, status: res.Status,
		ok: res.Err == nil && res.Status == http.StatusOK, hit: res.Cache == "hit"}
	c.samples = append(c.samples, s)
	if !s.ok {
		if len(c.problems) < 4 {
			c.problems = append(c.problems, fmt.Sprintf("request %d: status %d, err %v, body %.120q", index, res.Status, res.Err, res.Body))
		}
		return
	}
	if prev, seen := c.resp[key]; !seen {
		c.resp[key] = res.Body
	} else if !bytes.Equal(prev, res.Body) && len(c.problems) < 4 {
		c.problems = append(c.problems, fmt.Sprintf("request %d: response differs from an earlier response to the same body", index))
	}
}

// phase describes one stretch of sending: a warm-up (count requests, no
// deadline) or a measured window (until the deadline).
type phase struct {
	// indices, when non-nil, lists the stream indices to send, in order;
	// otherwise the phase sends first, first+1, ...
	indices []uint64
	first   uint64
	// count bounds the number of requests (0: unbounded); window bounds the
	// time (0: unbounded). One of them is set.
	count  uint64
	window time.Duration
	// rate > 0 makes the phase an open loop at that many requests per second.
	rate    float64
	senders int
}

// send runs one phase against the deployment and returns every sender's log
// and the elapsed time from the first send to the last response.
func send(d *deployment, st *stream, ph phase) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, ph.senders)
	var (
		next atomic.Uint64
		wg   sync.WaitGroup
	)
	limit := ph.count
	if ph.indices != nil {
		limit = uint64(len(ph.indices))
	}
	interval := 0.0
	if ph.rate > 0 {
		interval = float64(time.Second) / ph.rate
	}
	start := time.Now()
	for w := range logs {
		log := &clientLog{resp: make(map[string][]byte)}
		logs[w] = log
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, st.maxBody)
			for {
				k := next.Add(1) - 1
				if limit > 0 && k >= limit {
					return
				}
				intended := time.Now()
				if interval > 0 {
					// Open loop: request k is due at start + k/rate whether or
					// not earlier ones have been answered.
					due := time.Duration(float64(k) * interval)
					if ph.window > 0 && due >= ph.window {
						return
					}
					intended = start.Add(due)
					if wait := time.Until(intended); wait > 0 {
						time.Sleep(wait)
					}
				} else if ph.window > 0 && intended.Sub(start) >= ph.window {
					return
				}
				index := ph.first + k
				if ph.indices != nil {
					index = ph.indices[k]
				}
				path, body, key := st.body(index, buf)
				sent := time.Now()
				if interval == 0 {
					intended = sent
				}
				res := d.target.Do(path, body)
				done := time.Now()
				log.observe(index, key, res, done.Sub(intended).Nanoseconds(), sent.Sub(intended).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start)
}
