package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"ftsched/internal/expt"
	"ftsched/internal/sched"
	"ftsched/internal/service"
)

// checker accumulates a workload's output checks across warm-ups, windows
// and repeats. Any problem makes the benchmark exit non-zero.
type checker struct {
	// resp is the first response seen for each distinct request body, over
	// every repeat: a hit, a miss and a fresh server's answer must all be the
	// same bytes.
	resp     map[string][]byte
	csv      []byte // the first repeat's campaign CSV
	problems []string
	sum      []byte
}

func newChecker() *checker { return &checker{resp: make(map[string][]byte)} }

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 16 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// absorb merges the senders' logs of one phase.
func (c *checker) absorb(logs []*clientLog) {
	for _, l := range logs {
		for _, p := range l.problems {
			c.problem("%s", p)
		}
		for key, body := range l.resp {
			if prev, seen := c.resp[key]; !seen {
				c.resp[key] = body
			} else if !bytes.Equal(prev, body) {
				c.problem("two responses to the same request body differ (%.80q)", key)
			}
		}
	}
}

// conservation checks that every request the server counted ended in exactly
// one bucket.
func (c *checker) conservation(st service.Stats) {
	if sum := st.CacheHits + st.CacheMisses + st.ClientErrors + st.InternalErrors + st.CancelledRequests; st.Requests != sum {
		c.problem("/stats does not conserve: requests %d != hits %d + misses %d + 4xx %d + 5xx %d + cancelled %d",
			st.Requests, st.CacheHits, st.CacheMisses, st.ClientErrors, st.InternalErrors, st.CancelledRequests)
	}
}

// bounds picks the latency bounds out of any of the three response shapes.
type bounds struct {
	Lower  *float64 `json:"lower_bound"`
	Upper  *float64 `json:"upper_bound"`
	Result *struct {
		Candidates []struct {
			Lower float64 `json:"lower_bound"`
			Upper float64 `json:"upper_bound"`
		} `json:"candidates"`
	} `json:"result"`
}

// solve computes what the server computes for a /schedule request, with no
// memo and no pool: the reference the sampled responses are compared to, and
// the compute span of the traced pass.
func solve(req *service.ScheduleRequest) (*sched.Schedule, error) {
	var rng *rand.Rand
	if req.Seed != 0 {
		rng = rand.New(rand.NewSource(req.Seed))
	}
	bl, err := sched.AvgBottomLevels(req.Graph, req.Costs, req.Platform)
	if err != nil {
		return nil, err
	}
	return sched.Run(req.Scheduler, req.Graph, req.Platform, req.Costs,
		sched.RunOptions{Epsilon: req.Epsilon, Rng: rng, BottomLevels: bl, Policy: req.Policy})
}

// stream runs the off-the-clock checks over everything the workload's
// servers answered: every response parses with lower <= upper, and the first
// CheckSolves /schedule and /evaluate requests, solved again here, agree with
// the served bounds bit for bit. It also fixes the outputs digest: the
// responses to the first DigestRequests stream indices, which every repeat
// sends.
func (c *checker) stream(wl *workload, st *stream, sz sizes) {
	for key, body := range c.resp {
		var b bounds
		if err := json.Unmarshal(body, &b); err != nil {
			c.problem("response to %.60q does not parse: %v", key, err)
			continue
		}
		switch {
		case b.Lower != nil && b.Upper != nil:
			if *b.Lower > *b.Upper {
				c.problem("response to %.60q has lower_bound %g > upper_bound %g", key, *b.Lower, *b.Upper)
			}
		case b.Result != nil && len(b.Result.Candidates) > 0:
			for _, cand := range b.Result.Candidates {
				if cand.Lower > cand.Upper {
					c.problem("response to %.60q has a candidate with lower_bound %g > upper_bound %g", key, cand.Lower, cand.Upper)
				}
			}
		default:
			c.problem("response to %.60q carries no latency bounds", key)
		}
	}

	buf := make([]byte, 0, st.maxBody)
	h := sha256.New()
	solved := make(map[string]bool)
	for i := 0; i < len(st.plans) && (i < sz.DigestRequests || len(solved) < sz.CheckSolves); i++ {
		_, body, key := st.body(uint64(i), buf)
		resp, answered := c.resp[key]
		if i < sz.DigestRequests {
			if !answered {
				c.problem("stream index %d was never answered, so the outputs digest is partial", i)
			}
			fmt.Fprintf(h, "%s\n%s\n", key, resp)
		}
		if !answered || solved[key] || len(solved) >= sz.CheckSolves {
			continue
		}
		var req *service.ScheduleRequest
		switch st.plan(uint64(i)).Endpoint {
		case "schedule":
			r, err := service.DecodeScheduleRequest(bytes.NewReader(body))
			if err != nil {
				c.problem("stream index %d does not decode: %v", i, err)
				continue
			}
			req = r
		case "evaluate":
			r, err := service.DecodeEvaluateRequest(bytes.NewReader(body))
			if err != nil {
				c.problem("stream index %d does not decode: %v", i, err)
				continue
			}
			req = &r.ScheduleRequest
		default:
			continue
		}
		solved[key] = true
		s, err := solve(req)
		if err != nil {
			c.problem("re-solving stream index %d: %v", i, err)
			continue
		}
		var b bounds
		if err := json.Unmarshal(resp, &b); err != nil || b.Lower == nil || b.Upper == nil {
			continue // reported above
		}
		if *b.Lower != s.LowerBound() || *b.Upper != s.UpperBound() {
			c.problem("stream index %d: served bounds [%g, %g], re-solved [%g, %g]",
				i, *b.Lower, *b.Upper, s.LowerBound(), s.UpperBound())
		}
	}
	if len(solved) == 0 {
		c.problem("%s: no request could be re-solved", wl.Name)
	}
	c.sum = h.Sum(nil)
}

// campaign checks one campaign run: every row aggregates exactly Instances
// cells, and the CSV is the same bytes on every repeat.
func (c *checker) campaign(spec expt.Campaign, res *expt.CampaignResult, csv []byte) {
	if len(res.Cells) != spec.NumCells() {
		c.problem("campaign returned %d of %d cells", len(res.Cells), spec.NumCells())
	}
	for _, row := range res.Rows() {
		if row.Lower.N() != spec.Instances {
			c.problem("campaign row %s/%s/eps=%d/g=%g aggregates %d instances, want %d",
				row.Family, row.Scheduler, row.Epsilon, row.Granularity, row.Lower.N(), spec.Instances)
		}
		if row.Lower.Mean() > row.Upper.Mean() {
			c.problem("campaign row %s/eps=%d/g=%g has mean lower bound above mean upper bound",
				row.Scheduler, row.Epsilon, row.Granularity)
		}
	}
	if c.csv == nil {
		c.csv = csv
		sum := sha256.Sum256(csv)
		c.sum = sum[:]
	} else if !bytes.Equal(c.csv, csv) {
		c.problem("campaign CSV differs between repeats")
	}
}

func (c *checker) digest() string { return hex.EncodeToString(c.sum) }
