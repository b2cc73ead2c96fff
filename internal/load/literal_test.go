package load

import (
	"fmt"
	"testing"
	"time"
)

// The two loops runVirtual replaced, kept verbatim as the reference it must
// reproduce bit for bit: runClosedVirtual for rate 0, runOpenVirtual for a
// positive rate.

// runClosedVirtual simulates Workers closed-loop workers on the virtual
// clock. Worker identity does not influence any recorded value (each
// request costs Cost(req) + Think of one worker's time, whichever worker
// runs it), so the loop only accumulates total occupied worker time; the
// report's ElapsedSeconds is that total and Throughput is requests per
// occupied-worker-second — deliberately concurrency-normalized so the
// deterministic baseline cannot drift when CI changes -workers.
func runClosedVirtual(target Target, sy *Synthesizer, opts Options, rec *recorder) (int64, error) {
	thinkNs := opts.Think.Nanoseconds()
	var busyNs int64
	for i := 0; i < opts.Requests; i++ {
		req, err := sy.Request(uint64(i))
		if err != nil {
			return 0, err
		}
		res := target.Do(req.Path, req.Body)
		svcNs := opts.Cost(req, res).Nanoseconds()
		// Closed loop: intended and actual send coincide, so corrected
		// and uncorrected latency are the same sample.
		rec.observe(epIndex(req.Endpoint), res, svcNs, svcNs)
		busyNs += svcNs + thinkNs
	}
	return busyNs, nil
}

// runOpenVirtual simulates the open loop on the virtual clock: request i is
// *intended* to leave at i/rate seconds; one of Workers senders picks it up
// when free. The corrected latency charges the wait for a free sender to
// the request (completion − intended), while the uncorrected service view
// records only completion − actual send — exactly the gap coordinated
// omission hides. A CostFn stall therefore inflates the corrected tail by
// the backlog it causes, which is what the stall-injection test pins.
func runOpenVirtual(target Target, sy *Synthesizer, opts Options, rate float64, rec *recorder) (int64, error) {
	free := make([]int64, opts.Workers) // per-sender next-free virtual ns
	nsPerReq := 1e9 / rate
	var last int64
	for i := 0; i < opts.Requests; i++ {
		intended := int64(float64(i) * nsPerReq)
		// Earliest-free sender, lowest index on ties: deterministic.
		w := 0
		for j := 1; j < len(free); j++ {
			if free[j] < free[w] {
				w = j
			}
		}
		send := intended
		if free[w] > send {
			send = free[w]
		}
		req, err := sy.Request(uint64(i))
		if err != nil {
			return 0, err
		}
		res := target.Do(req.Path, req.Body)
		svcNs := opts.Cost(req, res).Nanoseconds()
		completion := send + svcNs
		rec.observe(epIndex(req.Endpoint), res, completion-intended, svcNs)
		free[w] = completion
		if completion > last {
			last = completion
		}
	}
	return last, nil
}

// mixedTarget answers instantly, a hit or a miss by the body's length, so a
// pass sees both dispositions without server state.
type mixedTarget struct{}

func (mixedTarget) Do(path string, body []byte) Result {
	if len(body)%2 == 0 {
		return Result{Status: 200, Cache: "hit"}
	}
	return Result{Status: 200, Cache: "miss"}
}

// TestVirtualEngineMatchesLiteral drives runVirtual and the literal loops
// over a grid of rates, sender counts, think times and budgets with the
// seeded cost model and one 200ms stall, and requires the same elapsed
// nanoseconds and byte-identical reports.
func TestVirtualEngineMatchesLiteral(t *testing.T) {
	corpus, err := BuildCorpus(smallCorpus)
	if err != nil {
		t.Fatal(err)
	}
	seeded := DefaultCost(7)
	cost := func(req *Request, res Result) time.Duration {
		if req.Index == 100 {
			return 200 * time.Millisecond
		}
		return seeded(req, res)
	}
	marshal := func(opts Options, rate float64, rec *recorder, elapsedNs int64) string {
		t.Helper()
		rep := &Report{Mode: opts.Mode, Deterministic: true, Seed: opts.Seed, RatePerSec: rate}
		fillReport(rep, rec, elapsedNs, rate > 0)
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, rate := range []float64{0, 200, 1000, 20000} {
		mode := "closed"
		if rate > 0 {
			mode = "open"
		}
		for _, workers := range []int{1, 3, 8} {
			for _, think := range []time.Duration{0, 1500 * time.Microsecond} {
				if rate > 0 && think > 0 {
					continue // think time is closed-loop only
				}
				for _, requests := range []int{1, 257} {
					name := fmt.Sprintf("rate=%g/workers=%d/think=%v/requests=%d", rate, workers, think, requests)
					opts := Options{Mode: mode, Workers: workers, Think: think, Requests: requests,
						Rate: rate, Seed: 7, Deterministic: true, Cost: cost}.withDefaults()
					sy, err := NewSynthesizer(corpus, opts.Profile, opts.ZipfS, opts.Seed)
					if err != nil {
						t.Fatal(err)
					}
					got, want := new(recorder), new(recorder)
					gotNs, err := runVirtual(mixedTarget{}, sy, opts, rate, got)
					if err != nil {
						t.Fatal(err)
					}
					var wantNs int64
					if rate == 0 {
						wantNs, err = runClosedVirtual(mixedTarget{}, sy, opts, want)
					} else {
						wantNs, err = runOpenVirtual(mixedTarget{}, sy, opts, rate, want)
					}
					if err != nil {
						t.Fatal(err)
					}
					if gotNs != wantNs {
						t.Errorf("%s: elapsed %dns, literal %dns", name, gotNs, wantNs)
					}
					if g, w := marshal(opts, rate, got, gotNs), marshal(opts, rate, want, wantNs); g != w {
						t.Errorf("%s: report differs from the literal loop:\n got  %s\n want %s", name, g, w)
					}
				}
			}
		}
	}
}

// TestRunRejectsThinkOutsideClosedLoop pins that a think time the open loop
// and the capacity search would ignore is refused, not echoed.
func TestRunRejectsThinkOutsideClosedLoop(t *testing.T) {
	for _, mode := range []string{"open", "search"} {
		opts := Options{Mode: mode, Think: 50 * time.Millisecond, Rate: 2000, Requests: 10,
			Deterministic: true, Corpus: smallCorpus}
		if _, err := Run(staticTarget{status: 200, cache: "miss"}, opts); err == nil {
			t.Errorf("mode %s with think time: Run succeeded, want an error", mode)
		}
	}
}
