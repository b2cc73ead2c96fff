// Command ftserved runs the fault-tolerant scheduling service: a
// long-running HTTP server that accepts DAG + platform + ε scheduling
// requests, runs FTSA / MC-FTSA / FTBAR / HEFT on a bounded worker pool,
// and serves repeated requests from a fingerprint-keyed response cache.
//
// Usage:
//
//	ftserved                          # listen on :8080, one worker per core
//	ftserved -addr :9000 -workers 4   # explicit socket and pool size
//	ftserved -queue 64 -cache 10000   # deeper queue, bigger response cache
//	ftserved -max-tasks 5000 -v       # reject huge instances, log requests
//	ftserved -max-trials 50000        # cap one /evaluate or /tune batch
//	ftserved -max-candidates 64       # cap one /tune candidate grid
//	ftserved -coordinator -shards 4   # coordinator over 4 in-process shards
//	ftserved -coordinator -shard-urls http://w1:8080,http://w2:8080
//	                                  # coordinator over remote workers
//
// In coordinator mode the process fronts N worker shards: each request body
// is decoded and fingerprinted once at the door (malformed input never
// reaches a worker) and forwarded to the shard that owns the fingerprint, so
// every shard keeps a disjoint, stable slice of the cache keyspace and the
// deployment serves byte-identical responses to a single server. The door
// refuses a body under the workers' own limits, with the same bytes. -shards
// runs the workers in process; -shard-urls points at standalone ftserved
// workers (http:// or https:// URLs) instead.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /schedule   schedule an instance, returns bounds + metrics JSON
//	POST /evaluate   schedule + Monte-Carlo failure injection: success rate
//	                 (Wilson interval), latency p50/p99, degradation histogram
//	POST /tune       auto-tune: Pareto frontier over the scheduler registry
//	                 × ε × policy grid, with a recommended operating point
//	POST /missions   async online mission (202 + id): execute the schedule
//	                 against a failure scenario, re-planning after crashes
//	GET  /missions/{id}         poll state / the final deterministic report
//	GET  /missions/{id}/events  stream the ordered event log as JSONL
//	GET  /healthz    liveness probe
//	GET  /stats      cache hit rate, queue depth, latency per endpoint × hit/miss
//
// The server drains in-flight requests on SIGINT/SIGTERM before exiting. An
// invalid invocation exits 2 before anything listens; a failure to listen or
// serve exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftsched/internal/coord"
	"ftsched/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole program behind main, kept re-entrant so tests can drive
// the binary's exact code path: parse the flags, listen, serve until ctx is
// done, then drain. Every line it prints is a log line on stderr; stdout
// stays empty. It returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "scheduling workers (0: one per core)")
		queue       = fs.Int("queue", 0, "pending-request queue bound (0: 2x workers); overflow returns 429")
		cache       = fs.Int("cache", 4096, "response cache capacity in entries")
		cacheShards = fs.Int("cache-shards", 16, "response cache shard count (lock striping, not worker shards)")
		maxTasks    = fs.Int("max-tasks", 0, "reject instances with more tasks (0: unlimited)")
		maxTrials   = fs.Int("max-trials", 0, "reject /evaluate and /tune requests with more trials (0: 100000)")
		maxCands    = fs.Int("max-candidates", 0, "reject /tune requests deriving more candidates (0: 256)")
		maxBatch    = fs.Int("max-batch", 0, "reject /schedule/batch envelopes with more items (0: 256)")
		maxMissions = fs.Int("max-missions", 0, "retained missions per worker; when all are running, new /missions return 429 (0: 1024)")
		maxBody     = fs.Int64("max-body", 32<<20, "request body limit in bytes")
		verbose     = fs.Bool("v", false, "log every POST request")

		coordinator = fs.Bool("coordinator", false, "front worker shards instead of serving directly")
		shards      = fs.Int("shards", 2, "coordinator: in-process worker shard count")
		shardURLs   = fs.String("shard-urls", "", "coordinator: comma-separated remote worker base URLs (overrides -shards)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var remotes []http.Handler
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *coordinator && *shardURLs != "":
		remotes, err = proxies(*shardURLs)
	case *coordinator && *shards < 1:
		err = fmt.Errorf("need -shards >= 1, got %d", *shards)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ftserved:", err)
		return 2
	}

	cfg := service.Config{
		Workers:       *workers,
		Queue:         *queue,
		CacheEntries:  *cache,
		CacheShards:   *cacheShards,
		MaxTasks:      *maxTasks,
		MaxTrials:     *maxTrials,
		MaxCandidates: *maxCands,
		MaxBatchItems: *maxBatch,
		MaxMissions:   *maxMissions,
		MaxBodyBytes:  *maxBody,
	}
	logger := log.New(stderr, "ftserved: ", log.LstdFlags)
	if *verbose {
		cfg.Log = logger
	}

	var handler http.Handler
	var servers []*service.Server // the in-process pools to drain
	switch {
	case !*coordinator:
		servers = []*service.Server{service.New(cfg)}
		handler = servers[0]
	case remotes != nil:
		// Remote workers: their pools are theirs to drain.
		handler = coord.New(remotes, cfg)
	default:
		members := make([]http.Handler, *shards)
		for i := range members {
			shardCfg := cfg
			shardCfg.Shard = strconv.Itoa(i)
			servers = append(servers, service.New(shardCfg))
			members[i] = servers[i]
		}
		handler = coord.New(members, cfg)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ftserved:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if c, ok := handler.(*coord.Coordinator); ok {
		logger.Printf("coordinating %d shards on %s", c.Shards(), ln.Addr())
	} else {
		logger.Printf("listening on %s (workers=%d queue=%d cache=%d)",
			ln.Addr(), servers[0].Workers(), servers[0].QueueCapacity(), *cache)
	}

	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "ftserved:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, let in-flight requests
	// finish, then drain the worker pools (the deferred Close).
	logger.Println("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "ftserved:", err)
		return 1
	}
	return 0
}

// proxies parses -shard-urls into one Proxy per entry. An entry must be an
// http or https URL with a host: anything else would start fine and then
// answer every routed request with a 502.
func proxies(list string) ([]http.Handler, error) {
	var members []http.Handler
	for _, base := range strings.Split(list, ",") {
		base = strings.TrimSpace(base)
		u, err := url.Parse(base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-shard-urls entry %q is not an http:// or https:// URL with a host", base)
		}
		members = append(members, &coord.Proxy{Base: base})
	}
	return members, nil
}
