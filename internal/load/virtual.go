package load

import "slices"

// The deterministic engines: a virtual clock drives pacing while the real
// in-process server still answers every request, so cache behavior, status
// codes and response bodies are genuine — only time is simulated. Requests
// execute sequentially in stream order (index 0, 1, 2, ...), which makes
// every derived quantity a pure function of (options, seed):
//
//   - The request multiset is index-addressable (see Synthesizer), so it
//     does not depend on worker count.
//   - Because execution is sequential, a repeated fingerprint is always a
//     cache hit (its predecessor has completed), so hit counts depend only
//     on the multiset, not on scheduling interleavings — the property that
//     real concurrent runs cannot give and the reason deterministic reports
//     are byte-identical across runs and worker counts.
//   - Latencies come from the CostFn, which sees the real response (a hit
//     costs less than a miss), and land in integral histograms.

// runVirtual simulates one pass on the virtual clock. Each of senders slots
// holds the virtual time at which it is next free; request i takes the
// earliest-free slot. With a rate (the open loop) there are Workers senders
// and request i is *intended* to leave at i/rate seconds: the corrected
// latency charges the wait for a free sender to the request (completion −
// intended), while the uncorrected service view records only completion −
// actual send — exactly the gap coordinated omission hides. A CostFn stall
// therefore inflates the corrected tail by the backlog it causes, which is
// what the stall-injection test pins. The elapsed time is the last
// completion.
//
// With rate 0 (the closed loop) there is one sender and the intended time is
// the send time. Worker identity does not influence any recorded value (each
// request costs Cost(req) + Think of one worker's time, whichever worker
// runs it), so one sender accumulates the total occupied worker time; the
// report's ElapsedSeconds is that total and Throughput is requests per
// occupied-worker-second — deliberately concurrency-normalized so the
// deterministic baseline cannot drift when CI changes -workers.
func runVirtual(target Target, sy *Synthesizer, opts Options, rate float64, rec *recorder) (int64, error) {
	senders := 1
	if rate > 0 {
		senders = opts.Workers
	}
	free := make([]int64, senders) // per-sender next-free virtual ns
	nsPerReq := 1e9 / rate
	thinkNs := opts.Think.Nanoseconds()
	for i := 0; i < opts.Requests; i++ {
		// Earliest-free sender, lowest index on ties: deterministic.
		w := 0
		for j := 1; j < len(free); j++ {
			if free[j] < free[w] {
				w = j
			}
		}
		send, intended := free[w], free[w]
		if rate > 0 {
			intended = int64(float64(i) * nsPerReq)
			send = max(send, intended)
		}
		req, err := sy.Request(uint64(i))
		if err != nil {
			return 0, err
		}
		res := target.Do(req.Path, req.Body)
		svcNs := opts.Cost(req, res).Nanoseconds()
		completion := send + svcNs
		rec.observe(epIndex(req.Endpoint), res, completion-intended, svcNs)
		free[w] = completion + thinkNs
	}
	return slices.Max(free), nil
}
