package service

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/wire"
)

// The decode pools recycle the request struct together with its payload
// storage: the graph's adjacency arena (dag.Graph.ScanJSON rebuilds in
// place) and the platform and cost-model matrices (their ScanJSON decodes
// into the previous backing block). A warm decode of a same-shaped request
// performs no payload-sized allocations.
//
// The storage also remembers what it holds (instanceMemo), so that a body
// repeating an instance member byte for byte skips decoding it. For a repeat
// to find that storage, the pools are a fixed table keyed on a hash of the
// body's first poolKeyBytes — the opening of the graph in every body this
// repository writes, and so in effect a name for the instance. The key only
// chooses where to look: the byte comparison in decodeBody decides what is
// reused, so a collision costs a full decode and nothing else.
//
// Only an instance that repeats is worth storage of its own. A request goes
// back to its key's table pool when that key had been seen shortly before
// (recentKeys); a first sighting's request, or one that remembers nothing,
// goes to one spare pool. A request is taken from the spare pool before
// anything is allocated, so a stream of instances that never repeat recycles
// as tightly as a single pool would; a repeating instance whose table pool is
// empty is given new storage rather than another repeating instance's.
const (
	requestPools = 64
	poolKeyBytes = 256
)

var (
	scheduleRequestPools  [requestPools]sync.Pool
	spareScheduleRequests sync.Pool
	requestPoolSeed       = maphash.MakeSeed()
	// recentKeys remembers the latest request keys, direct-mapped: whether
	// a body's key is in it is whether its instance was seen shortly before.
	recentKeys [1024]atomic.Uint64
)

// requestKey hashes the start of body: its table pool is key % requestPools.
func requestKey(body []byte) uint64 {
	return maphash.Bytes(requestPoolSeed, body[:min(len(body), poolKeyBytes)])
}

func recentKey(key uint64) *atomic.Uint64 {
	return &recentKeys[key/requestPools%uint64(len(recentKeys))]
}

// acquireScheduleRequest returns a pooled request for body, from the pools
// poolsFor names, or a new one.
func acquireScheduleRequest(body []byte) *ScheduleRequest {
	pools := poolsFor(requestKey(body))
	req, _ := pools[0].Get().(*ScheduleRequest)
	if req == nil {
		req, _ = pools[1].Get().(*ScheduleRequest)
	}
	return furnish(req)
}

// poolsFor returns where a request for key is looked for, in order. For an
// instance seen before, the first place is its key's table pool, where a
// request last decoded from it waits; for a first sighting it is the spare
// pool, so that the stored instances are left to their repeats.
func poolsFor(key uint64) [2]*sync.Pool {
	if recentKey(key).Load() != key {
		return [2]*sync.Pool{&spareScheduleRequests, &scheduleRequestPools[key%requestPools]}
	}
	return [2]*sync.Pool{&scheduleRequestPools[key%requestPools], &spareScheduleRequests}
}

// furnish gives a request, new when req is nil, the storage a pooled decode
// needs.
func furnish(req *ScheduleRequest) *ScheduleRequest {
	if req == nil {
		req = new(ScheduleRequest)
	}
	if req.Graph == nil {
		req.Graph = new(dag.Graph)
	}
	if req.Platform == nil {
		req.Platform = new(platform.Platform)
	}
	if req.Costs == nil {
		req.Costs = new(platform.CostModel)
	}
	if req.memo == nil {
		req.memo = new(instanceMemo)
	}
	return req
}

// AcquireScheduleRequest returns a pooled request for use with
// DecodeScheduleRequestInto: a spare one, else any the table holds, so it
// allocates only when no pooled request is left. Pass it to
// ReleaseScheduleRequest once the request — and everything aliasing its
// graph, platform or costs: schedules, frozen views, responses under
// construction — is no longer referenced. The graph, platform and costs are
// read-only: a later decode of the same bytes takes them as they are.
func AcquireScheduleRequest() *ScheduleRequest {
	req, _ := spareScheduleRequests.Get().(*ScheduleRequest)
	for k := 0; req == nil && k < requestPools; k++ {
		req, _ = scheduleRequestPools[k].Get().(*ScheduleRequest)
	}
	return furnish(req)
}

// ReleaseScheduleRequest recycles a request obtained from
// AcquireScheduleRequest, keeping its payload storage for the next decode.
// Safe only once nothing aliases the request's sub-objects.
func ReleaseScheduleRequest(req *ScheduleRequest) {
	if req == nil {
		return
	}
	*req = ScheduleRequest{Instance: req.Instance}
	req.memo.home().Put(req)
}

// DecodeScheduleRequestInto is DecodeScheduleRequest decoding into req's
// existing graph, platform and cost-model storage — with a request from
// AcquireScheduleRequest, the graph decodes through its adjacency arena and
// the matrices into their previous rows, so the warm path allocates nothing
// proportional to the instance, and a member repeated byte for byte is not
// decoded at all. Whatever req held before is overwritten.
func DecodeScheduleRequestInto(req *ScheduleRequest, r io.Reader) error {
	buf, err := acquireBody(r, 0)
	defer ReleaseBody(buf)
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return decodeScheduleInto(req, buf.Bytes())
}

func decodeScheduleInto(req *ScheduleRequest, body []byte) error {
	*req = ScheduleRequest{Instance: req.Instance}
	if m := req.memo; m != nil {
		m.key = requestKey(body)
		m.repeats = recentKey(m.key).Swap(m.key) == m.key
	}
	return decodeBody(body, req)
}

// instanceMemo is what a pooled request remembers of its instance storage
// from one decode to the next: the exact bytes each member was last decoded
// from, which decodeBody compares a body's member against before decoding
// it, and the fingerprint state the instance section hashed to, which
// instanceOf resumes from. Only pooled requests have one; every method is a
// no-op on nil. The bytes are pool memory, dropped with the request by a
// collection like the arenas beside them.
type instanceMemo struct {
	// members are, in instanceFields order, the storage each member was
	// last decoded into and the bytes it was decoded from; an entry with no
	// obj remembers nothing.
	members [3]keptMember
	// fp is the fingerprint state after the instance section of the three
	// members' objects, valid while fpOK.
	fp   fnv128a
	fpOK bool
	// rest is the residual object decodeBody splices the parameters into.
	rest []byte
	// key is the last body's request key, and repeats whether that key had
	// been seen before: together they say where the request goes back to.
	key     uint64
	repeats bool
}

// home returns the pool the request goes back to: its key's table pool
// when it remembers an instance seen before, the spare pool otherwise.
func (m *instanceMemo) home() *sync.Pool {
	if m == nil || !m.repeats || m.members[0].obj == nil {
		return &spareScheduleRequests
	}
	return &scheduleRequestPools[m.key%requestPools]
}

type keptMember struct {
	obj any // the storage: a *dag.Graph, *platform.Platform or *platform.CostModel
	src []byte
}

// kept returns how many bytes of at member i's storage obj was decoded
// from, when they are exactly at's leading bytes; 0 when obj holds no such
// thing. The kept bytes are one whole JSON value, so a body holding them at
// the cursor holds that value and nothing longer.
func (m *instanceMemo) kept(i int, obj any, at []byte) int {
	if m == nil || m.members[i].obj != obj || !bytes.HasPrefix(at, m.members[i].src) {
		return 0
	}
	return len(m.members[i].src)
}

// keep records that member i's storage obj now holds the decode of src. A
// member about to be decoded into is forgotten first (keep(i, nil, nil)): a
// decode that fails leaves the storage holding nothing reusable.
func (m *instanceMemo) keep(i int, obj any, src []byte) {
	if m == nil {
		return
	}
	k := &m.members[i]
	k.obj, k.src = obj, append(k.src[:0], src...)
	m.fpOK = false
}

// forget drops everything the storage was remembered to hold.
func (m *instanceMemo) forget() {
	if m == nil {
		return
	}
	for i := range m.members {
		m.keep(i, nil, nil)
	}
}

// holds reports whether in's members are the storage the memo describes.
func (m *instanceMemo) holds(in *Instance) bool {
	return m.members[0].obj == any(in.Graph) && m.members[1].obj == any(in.Platform) && m.members[2].obj == any(in.Costs)
}

// fingerprinted reports whether fp is in's instance section.
func (m *instanceMemo) fingerprinted(in *Instance) bool {
	return m != nil && m.fpOK && m.holds(in)
}

// keepFingerprint remembers h as in's instance section, when in's members
// are remembered storage; a member decoded again invalidates it.
func (m *instanceMemo) keepFingerprint(in *Instance, h fnv128a) {
	if m != nil && m.holds(in) {
		m.fp, m.fpOK = h, true
	}
}

// scanMember decodes one instance member into *storage, allocating it when
// the request brought none, and points *dst at it; null leaves *dst nil. A
// value memo remembers the storage holding, byte for byte, is skipped when
// reuse (nil: always) accepts what the storage holds; any other is decoded,
// and remembered.
func scanMember[T any](s *wire.Scanner, body []byte, memo *instanceMemo, i int, dst, storage **T,
	reuse func(*T) bool, scan func(*T) error) error {
	if *dst = nil; s.Null() {
		return nil
	}
	if *storage == nil {
		*storage = new(T)
	}
	*dst = *storage
	start := s.Offset()
	if n := memo.kept(i, *storage, body[start:]); n > 0 && (reuse == nil || reuse(*dst)) {
		s.Advance(n)
		return nil
	}
	memo.keep(i, nil, nil)
	if err := scan(*dst); err != nil {
		return err
	}
	memo.keep(i, *storage, body[start:s.Offset()])
	return nil
}
