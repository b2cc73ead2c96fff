package service

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

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
// tagged, so distinct structures cannot collide by concatenation. The
// encoding collects in buf and reaches the hash a buffer at a time: a
// paper-sized instance is 3 400 eight-byte fields, and FNV's own byte loop,
// not a call per field, should be what hashing them costs.
type fingerprinter struct {
	h   fnv128a
	n   int
	buf [512]byte
	adj []dag.Adj // a successor run that had to be sorted
}

// fnv128a is hash/fnv's FNV-1a at 128 bits as a value: write keeps the state
// in two registers over a whole buffer, and a state can be saved and resumed
// by assignment. TestFNV128MatchesStdlib holds it to hash/fnv.New128a.
type fnv128a struct{ hi, lo uint64 }

func newFNV128a() fnv128a { return fnv128a{0x6c62272e07bb0142, 0x62b821756295c58d} }

// write folds p into the state. The 128-bit FNV prime is 2^88 + 0x13b: the
// product is lo × 0x13b in full, plus hi × 0x13b and lo << 24 in the high
// word.
func (h *fnv128a) write(p []byte) {
	hi, lo := h.hi, h.lo
	for _, c := range p {
		lo ^= uint64(c)
		carry, low := bits.Mul64(0x13b, lo)
		hi = carry + lo<<24 + 0x13b*hi
		lo = low
	}
	h.hi, h.lo = hi, lo
}

func (h fnv128a) sum() (fp Fingerprint) {
	binary.BigEndian.PutUint64(fp[:8], h.hi)
	binary.BigEndian.PutUint64(fp[8:], h.lo)
	return fp
}

func (f *fingerprinter) flush() {
	f.h.write(f.buf[:f.n])
	f.n = 0
}

func (f *fingerprinter) u64(v uint64) {
	if f.n+8 > len(f.buf) {
		f.flush()
	}
	binary.LittleEndian.PutUint64(f.buf[f.n:], v)
	f.n += 8
}

func (f *fingerprinter) i64(v int64) { f.u64(uint64(v)) }

// f64 hashes the exact bit pattern: two costs that differ in the last ulp
// are different instances.
func (f *fingerprinter) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprinter) str(s string) {
	f.u64(uint64(len(s)))
	for len(s) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		k := copy(f.buf[f.n:], s)
		f.n += k
		s = s[k:]
	}
}

func (f *fingerprinter) sum() Fingerprint {
	f.flush()
	return f.h.sum()
}

// instanceOf starts a fingerprint with in's instance section. A pooled
// request whose instance storage still holds what it was last fingerprinted
// from resumes from the state kept then (instanceMemo) instead of walking
// the instance again; a fingerprint it computes in full it keeps for the
// next request.
func instanceOf(in *Instance) fingerprinter {
	f := fingerprinter{h: newFNV128a()}
	if in.memo.fingerprinted(in) {
		f.h = in.memo.fp
		return f
	}
	f.instance(in.Graph, in.Platform, in.Costs)
	f.flush()
	in.memo.keepFingerprint(in, f.h)
	return f
}

// instance hashes the problem instance: DAG structure and volumes, the cost
// matrix and the delay matrix. The graph's display name is deliberately
// excluded — it affects neither the schedule nor any response field, so
// instances differing only in name share cache entries. So is the order the
// edges were listed in: successors are hashed by ascending target, which is
// the order every writer of this repository emits and a decode keeps, so the
// adjacency is normally hashed where it lies.
func (f *fingerprinter) instance(g *dag.Graph, p *platform.Platform, cm *platform.CostModel) {
	byTarget := func(a, b dag.Adj) int { return cmp.Compare(a.To, b.To) }
	f.str("graph")
	v := g.NumTasks()
	f.u64(uint64(v))
	for t := 0; t < v; t++ {
		succs := g.Succs(dag.TaskID(t))
		if !slices.IsSortedFunc(succs, byTarget) {
			f.adj = append(f.adj[:0], succs...)
			slices.SortFunc(f.adj, byTarget)
			succs = f.adj
		}
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
		for _, d := range p.DelayRow(platform.ProcID(k)) {
			f.f64(d)
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
	f := instanceOf(&req.Instance)
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
