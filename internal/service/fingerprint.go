package service

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// Fingerprint is a 128-bit FNV-1a digest of a canonical encoding. 128 bits
// (rather than the 64 the campaign checkpoints use) because the response
// cache serves whatever it finds under a key without re-verifying the
// instance, so the collision probability has to stay negligible at
// production request volumes.
type Fingerprint [16]byte

// fingerprinter streams a canonical byte encoding into an FNV-1a hash.
// Every variable-length field is length-prefixed and every section is
// tagged, so distinct structures cannot collide by concatenation.
type fingerprinter struct {
	h   hash.Hash
	buf [8]byte
}

func newFingerprinter() *fingerprinter {
	return &fingerprinter{h: fnv.New128a()}
}

func (f *fingerprinter) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprinter) i64(v int64) { f.u64(uint64(v)) }

// f64 hashes the exact bit pattern: two costs that differ in the last ulp
// are different instances.
func (f *fingerprinter) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprinter) str(s string) {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
}

func (f *fingerprinter) sum() Fingerprint {
	var fp Fingerprint
	f.h.Sum(fp[:0])
	return fp
}

// instance hashes the problem instance: DAG structure and volumes, the cost
// matrix and the delay matrix. The graph's display name is deliberately
// excluded — it affects neither the schedule nor any response field, so
// instances differing only in name share cache entries.
func (f *fingerprinter) instance(g *dag.Graph, p *platform.Platform, cm *platform.CostModel) {
	f.str("graph")
	v := g.NumTasks()
	f.u64(uint64(v))
	for t := 0; t < v; t++ {
		succs := g.SortedSuccs(dag.TaskID(t))
		f.u64(uint64(len(succs)))
		for _, a := range succs {
			f.u64(uint64(a.To))
			f.f64(a.Volume)
		}
	}
	f.str("platform")
	m := p.NumProcs()
	f.u64(uint64(m))
	for k := 0; k < m; k++ {
		for h := 0; h < m; h++ {
			f.f64(p.Delay(platform.ProcID(k), platform.ProcID(h)))
		}
	}
	f.str("costs")
	for t := 0; t < v; t++ {
		for k := 0; k < m; k++ {
			f.f64(cm.Cost(dag.TaskID(t), platform.ProcID(k)))
		}
	}
}

// RequestFingerprint digests everything the response depends on: the
// instance plus scheduler, ε, matching policy, tie-break seed, failure rate
// and the response-shaping options. Two requests with equal fingerprints
// produce byte-identical responses, which is what lets the cache serve
// stored bytes directly.
func RequestFingerprint(req *ScheduleRequest) Fingerprint {
	f := newFingerprinter()
	f.instance(req.Graph, req.Platform, req.Costs)
	f.str("params")
	f.str(req.canonicalScheduler())
	f.i64(int64(req.Epsilon))
	// Canonicalization (canonicalPolicySeed) keeps equivalent requests on
	// one cache entry. Pre-registry fingerprints canonicalized the same way
	// with hard-coded names, so existing cache keys are unchanged.
	policy, seed := req.canonicalPolicySeed()
	f.str(policy)
	f.i64(seed)
	f.f64(req.Lambda)
	var opts uint64
	if req.IncludeGantt {
		opts |= 1
	}
	if req.IncludeSchedule {
		opts |= 2
	}
	f.u64(opts)
	return f.sum()
}
