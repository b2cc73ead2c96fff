// Command ftload load-tests the ftserved serving tier: it synthesizes a
// zipf-skewed stream of /schedule, /evaluate and /tune requests over a
// generated instance corpus and reports throughput, corrected latency
// quantiles, cache behavior and error counts as deterministic JSON.
//
// Usage:
//
//	ftload                                  # closed loop vs in-process server
//	ftload -mode open -rate 500             # paced arrivals, CO-corrected p99
//	ftload -mode search -slo 20ms           # binary-search max sustainable rate
//	ftload -target http://localhost:8080    # drive a live ftserved
//	ftload -shards 4                        # in-process coordinator over 4 shards
//	ftload -profile evaluate -zipf 1.2      # heavier /evaluate mix, more skew
//	ftload -deterministic=false -workers 8  # wall-clock measurement
//
// Modes:
//
//	closed   N workers issue back-to-back requests (optional -think pause,
//	         which the other modes refuse).
//	open     requests arrive at -rate/sec; latency is measured from each
//	         request's intended send time, so sender backlog is charged to
//	         the affected requests (coordinated-omission correction).
//	search   binary-search the highest open-loop rate whose corrected p99
//	         meets -slo within -error-budget, then rerun at that rate.
//
// Without -target, ftload builds an in-process server and defaults to
// deterministic mode: a fixed seed yields a byte-identical report across
// runs and across -workers values. With -target (or -deterministic=false),
// latencies are wall-clock measurements. See docs/LOAD.md for the report
// schema and the determinism gate CI runs on it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ftsched/internal/load"
	"ftsched/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftload:", err)
		os.Exit(1)
	}
}

// run parses args, executes one load run and writes the JSON report to out
// (or -o). It is the whole program behind main, kept re-entrant so tests can
// invoke the binary's exact code path twice and compare bytes.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftload", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "closed", "closed, open or search")
		target   = fs.String("target", "", "base URL of a live ftserved (default: in-process server)")
		requests = fs.Int("requests", 1000, "request budget per run (per probe in search mode)")
		warmup   = fs.Int("warmup", 0, "unrecorded cache-priming requests before measurement")
		workers  = fs.Int("workers", 4, "closed-loop workers / open-loop sender cap")
		think    = fs.Duration("think", 0, "closed-loop pause after each request")
		rate     = fs.Float64("rate", 200, "open-loop arrival rate, requests/second")
		seed     = fs.Int64("seed", 1, "seed for every random choice (zipf draws, request parameters)")
		zipf     = fs.Float64("zipf", 1.0, "zipf popularity exponent over corpus ranks (0: uniform)")
		profName = fs.String("profile", "mixed",
			"traffic profile: "+strings.Join(load.ProfileNames(), ", "))
		profFile = fs.String("profile-file", "", "JSON file overriding -profile with a custom profile")
		det      = fs.Bool("deterministic", true,
			"virtual-clock mode: seeded latency model, byte-identical reports (default false with -target)")
		output = fs.String("o", "", "write the report here instead of stdout")

		corpusSize = fs.Int("corpus-size", 16, "distinct instances in the corpus")
		family     = fs.String("family", "random", "corpus DAG family (or \"mixed\" to cycle all)")
		procs      = fs.Int("procs", 8, "platform size of every corpus instance")
		tasksMin   = fs.Int("tasks-min", 30, "minimum random-family task count")
		tasksMax   = fs.Int("tasks-max", 60, "maximum random-family task count")
		gran       = fs.Float64("granularity", 1.0, "computation-to-communication ratio")
		corpusSeed = fs.Int64("corpus-seed", 0, "corpus generation seed (separate from -seed: same instances, different traffic)")

		slo       = fs.Duration("slo", 20*time.Millisecond, "search mode: corrected-p99 objective")
		errBudget = fs.Float64("error-budget", 0.01, "search mode: tolerated 429/5xx/transport fraction")
		rateMin   = fs.Float64("rate-min", 10, "search mode: bracket floor, requests/second")
		rateMax   = fs.Float64("rate-max", 50000, "search mode: bracket ceiling, requests/second")
		probes    = fs.Int("probes", 12, "search mode: maximum binary-search probes")

		srvWorkers = fs.Int("server-workers", 0, "in-process server: scheduling workers per shard (0: one per core)")
		srvQueue   = fs.Int("server-queue", 0, "in-process server: queue bound per shard (0: 2x workers)")
		srvCache   = fs.Int("server-cache", 4096, "in-process server: response cache entries per shard")
		srvShards  = fs.Int("shards", 1, "in-process worker shards behind a coordinator (1: a bare server)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	// A live target measures wall time unless the user explicitly insisted
	// on the virtual clock.
	detSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "deterministic" {
			detSet = true
		}
	})
	deterministic := *det
	if *target != "" && !detSet {
		deterministic = false
	}

	profile, err := load.ProfileByName(*profName)
	if err != nil {
		return err
	}
	if *profFile != "" {
		profile, err = readProfile(*profFile)
		if err != nil {
			return err
		}
	}

	if *requests < 1 || *workers < 1 {
		return fmt.Errorf("need -requests >= 1 and -workers >= 1, got %d and %d", *requests, *workers)
	}
	zipfS := *zipf
	if zipfS == 0 {
		zipfS = load.ZipfUniform
	}
	opts := load.Options{
		Mode:          *mode,
		Workers:       *workers,
		Think:         *think,
		Requests:      *requests,
		Warmup:        *warmup,
		Rate:          *rate,
		Seed:          *seed,
		ZipfS:         zipfS,
		Deterministic: deterministic,
		Profile:       profile,
		Corpus: load.CorpusSpec{
			Size:        *corpusSize,
			Family:      *family,
			Procs:       *procs,
			TasksMin:    *tasksMin,
			TasksMax:    *tasksMax,
			Granularity: *gran,
			Seed:        *corpusSeed,
		},
		SLO:          *slo,
		ErrorBudget:  *errBudget,
		RateMin:      *rateMin,
		RateMax:      *rateMax,
		SearchProbes: *probes,
	}

	if *srvShards < 1 {
		return fmt.Errorf("need -shards >= 1, got %d", *srvShards)
	}
	if *srvShards > 1 {
		// A bare server reports shards: 0 ("no deployment in front"), so
		// pre-sharding baselines stay comparable; a sharded run echoes the
		// shard count it measured.
		opts.Shards = *srvShards
	}

	var tgt load.Target
	if *target != "" {
		if *srvShards > 1 {
			return fmt.Errorf("-shards builds an in-process deployment and cannot combine with -target (point -target at a running coordinator instead)")
		}
		tgt = load.URLTarget{Base: *target}
	} else {
		sharded, closeTarget := load.ShardedTarget(*srvShards, service.Config{
			Workers:      *srvWorkers,
			Queue:        *srvQueue,
			CacheEntries: *srvCache,
		})
		defer closeTarget()
		tgt = sharded
	}

	rep, err := load.Run(tgt, opts)
	if err != nil {
		return err
	}
	data, err := rep.Marshal()
	if err != nil {
		return err
	}
	if *output != "" {
		return os.WriteFile(*output, data, 0o644)
	}
	_, err = out.Write(data)
	return err
}

// readProfile loads a custom traffic profile. Strict decoding: a typo'd
// field name should fail the run, not silently fall back to a default pool.
func readProfile(path string) (load.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return load.Profile{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p load.Profile
	if err := dec.Decode(&p); err != nil {
		return load.Profile{}, fmt.Errorf("parsing profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return load.Profile{}, err
	}
	return p, nil
}
