package load

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"ftsched/internal/coord"
	"ftsched/internal/service"
)

// Result is one request's observable outcome: the HTTP status, the cache
// disposition the server reported, and the transport error, if any. Status
// is 0 exactly when Err is non-nil.
type Result struct {
	Status int
	// Cache is the X-Ftserved-Cache header: "hit", "miss" or "" (error
	// responses and GETs carry none).
	Cache string
	// Body is the response body. The runner ignores it; tests and the
	// /stats helper read it.
	Body []byte
	Err  error
}

// Target abstracts where requests go: an in-process handler or a live
// server. Do issues a POST with the given body, or a GET when body is nil.
// Implementations must be safe for concurrent use.
type Target interface {
	Do(path string, body []byte) Result
}

// HandlerTarget drives an http.Handler in process — the deterministic,
// network-free harness mode. The handler is typically a service.Server.
type HandlerTarget struct {
	Handler http.Handler
}

// Do implements Target.
func (t HandlerTarget) Do(path string, body []byte) Result {
	method := http.MethodGet
	var r io.Reader
	if body != nil {
		method = http.MethodPost
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, req)
	return Result{
		Status: rec.Code,
		Cache:  rec.Header().Get(service.CacheStatusHeader),
		Body:   rec.Body.Bytes(),
	}
}

// ShardedTarget builds the self-contained in-process deployment ftload and
// the e2e suite drive: n worker shards behind a coordinator for n >= 2, or a
// bare server for n <= 1 — the same serving code either way, so reports are
// directly comparable across shard counts. Every shard gets its own worker
// pool and cache under the given config, labeled "0".."n-1" in /stats, and
// the coordinator refuses bodies under the same config's limits. The
// returned close function drains every shard's pool.
func ShardedTarget(n int, cfg service.Config) (Target, func()) {
	if n <= 1 {
		svc := service.New(cfg)
		return HandlerTarget{Handler: svc}, svc.Close
	}
	shards := make([]http.Handler, n)
	closers := make([]func(), n)
	for i := range shards {
		shardCfg := cfg
		shardCfg.Shard = strconv.Itoa(i)
		s := service.New(shardCfg)
		shards[i] = s
		closers[i] = s.Close
	}
	c := coord.New(shards, cfg)
	return HandlerTarget{Handler: c}, func() {
		for _, cl := range closers {
			cl()
		}
	}
}

// URLTarget drives a live server over HTTP.
type URLTarget struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// Do implements Target.
func (t URLTarget) Do(path string, body []byte) Result {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimSuffix(t.Base, "/") + path
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		return Result{Err: err}
	}
	defer resp.Body.Close()
	// Read fully so the connection is reusable; latency covers the whole
	// response, as a client would experience it.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Result{Err: fmt.Errorf("reading response: %w", err)}
	}
	return Result{
		Status: resp.StatusCode,
		Cache:  resp.Header.Get(service.CacheStatusHeader),
		Body:   data,
	}
}
