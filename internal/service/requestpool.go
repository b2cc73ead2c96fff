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
	"ftsched/internal/sched"
	"ftsched/internal/wire"
)

// The decode pools recycle instance storage: the graph's adjacency arena
// (dag.Graph.ScanJSON rebuilds in place) and the platform and cost-model
// matrices (their ScanJSON decodes into the previous backing block). Every
// endpoint's request embeds Instance, and every decode acquires the storage
// into it (decodeInto), so a warm decode of a same-shaped instance performs
// no payload-sized allocations, whichever endpoint the body was posted to.
//
// The storage also remembers what it holds (instanceMemo), so that a body
// repeating an instance member byte for byte skips decoding it — a /schedule
// and an /evaluate of one instance find the same remembered bytes. For a
// repeat to find that storage, each recently seen instance has a table pool
// of its own, a slot, named by a hash of the body's first poolKeyBytes — the
// opening of the graph in every body this repository writes, and so in
// effect a name for the instance. routes maps every recent key to its slot
// exactly, so two instances never share one; a key seen for the first time
// takes the next slot in ring order, and the key that held it stops being
// recent. The key only chooses where to look: the byte comparison in
// decodeBody decides what is reused, so two instances that share a key cost
// a full decode and nothing else.
//
// Only an instance that repeats is worth storage of its own. Storage goes
// back to its key's slot when that key was recent when the body arrived
// and still owns the slot; a first sighting's storage, storage that
// remembers nothing, or storage whose key lost its slot meanwhile goes to
// one spare pool. A first sighting takes storage from the spare pool, then
// from its new slot (what the key that held it left), before anything is
// allocated, so a stream of instances that never repeat recycles as
// tightly as a single pool would; a repeating instance whose slot is empty
// takes spare storage, or new, rather than another repeating instance's.
// Storage goes back once its compute can no longer run (serveCached's
// cleanup, or serveBatch's return); a mission, which outlives its response,
// keeps it, and the collector takes it with the request.
const (
	requestPools = 1024
	poolKeyBytes = 256
)

// poolSlot is one recent instance's table pool, and the key that owns it.
type poolSlot struct {
	owner atomic.Uint64
	pool  sync.Pool
}

var (
	instancePools   [requestPools]poolSlot
	spareInstances  sync.Pool
	requestPoolSeed = maphash.MakeSeed()
	// routes maps each recent key to its slot; next is the slot the next
	// first sighting takes, and used how many slots have ever been taken.
	routes = struct {
		sync.Mutex
		slot       map[uint64]int
		next, used int
	}{slot: make(map[uint64]int, requestPools)}
)

// requestKey hashes the start of body: the name its slot is found by.
func requestKey(body []byte) uint64 {
	return maphash.Bytes(requestPoolSeed, body[:min(len(body), poolKeyBytes)])
}

// route returns key's slot, and whether key was recent: a first sighting
// takes the next slot in ring order from the key that held it.
func route(key uint64) (slot int, seen bool) {
	routes.Lock()
	defer routes.Unlock()
	if slot, seen = routes.slot[key]; seen {
		return slot, true
	}
	slot = routes.next
	routes.next = (slot + 1) % requestPools
	routes.used = max(routes.used, slot+1)
	if old := instancePools[slot].owner.Load(); routes.slot[old] == slot {
		delete(routes.slot, old)
	}
	routes.slot[key] = slot
	instancePools[slot].owner.Store(key)
	return slot, false
}

// usedSlots returns the slots any key has been routed to.
func usedSlots() []poolSlot {
	routes.Lock()
	defer routes.Unlock()
	return instancePools[:routes.used]
}

// poolsFor returns where storage for a body routed to slot is looked for,
// in order. For an instance seen before, the first place is its slot, where
// the storage last decoded from it waits; for a first sighting it is the
// spare pool, so that the stored instances are left to their repeats.
func poolsFor(slot int, seen bool) [2]*sync.Pool {
	if !seen {
		return [2]*sync.Pool{&spareInstances, &instancePools[slot].pool}
	}
	return [2]*sync.Pool{&instancePools[slot].pool, &spareInstances}
}

// pooled returns the storage waiting in p, or nil.
func pooled(p *sync.Pool) *instanceMemo {
	m, _ := p.Get().(*instanceMemo)
	return m
}

// acquire gives in the instance storage m holds, or new storage when m is
// nil.
func (in *Instance) acquire(m *instanceMemo) {
	if m == nil {
		m = &instanceMemo{storage: Instance{Graph: new(dag.Graph), Platform: new(platform.Platform), Costs: new(platform.CostModel)}}
	}
	*in = m.storage
	in.memo = m
}

// release returns in's pooled instance storage, keeping its payload storage
// for the next decode, and leaves in empty. Safe only once nothing aliases
// the graph, platform or costs: schedules, frozen views, responses under
// construction. A no-op when in holds no pooled storage.
func (in *Instance) release() {
	if m := in.memo; m != nil {
		*in = Instance{}
		m.home().Put(m)
	}
}

// decodeInto is the one path from a body to a request: it decodes body into
// req (decodeBody) on the instance storage req holds or, when it holds none,
// on storage from the pools body's key names. The storage stays with req,
// whether the body is refused or not, until req's release.
func decodeInto(req request, body []byte) error {
	in := req.instance()
	key := requestKey(body)
	slot, seen := route(key)
	if in.memo == nil {
		pools := poolsFor(slot, seen)
		m := pooled(pools[0])
		if m == nil {
			m = pooled(pools[1])
		}
		in.acquire(m)
	}
	in.memo.key, in.memo.slot, in.memo.repeats = key, slot, seen
	return decodeBody(body, req)
}

// requestPtr is a request type T by its pointer, which has the methods.
type requestPtr[T any] interface {
	*T
	request
}

// decodeRequest decodes body into a new request of type T (decodeInto). A
// refused body's storage goes straight back to the pools.
func decodeRequest[T any, P requestPtr[T]](body []byte) (P, error) {
	req := P(new(T))
	if err := decodeInto(req, body); err != nil {
		req.instance().release()
		return nil, err
	}
	return req, nil
}

// decodes makes an endpoint's decode out of its row's Decoded for a request
// of type T: a body decodes into a new request (decodeRequest), and the
// Decoded owns its storage.
func decodes[T any, P requestPtr[T]](decoded func(P) *Decoded) func([]byte) (*Decoded, error) {
	return func(body []byte) (*Decoded, error) {
		req, err := decodeRequest[T, P](body)
		if err != nil {
			return nil, err
		}
		d := decoded(req)
		d.release = req.instance().release
		return d, nil
	}
}

// readInto reads r to the end and decodes it into req (decodeInto), which
// it returns, or nil with the error: the exported decoders.
func readInto[P request](req P, r io.Reader) (P, error) {
	buf, err := acquireBody(r, 0)
	defer ReleaseBody(buf)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else if err = decodeInto(req, buf.Bytes()); err == nil {
		return req, nil
	}
	var none P
	return none, err
}

// AcquireScheduleRequest returns a request holding pooled instance storage,
// for use with DecodeScheduleRequestInto: spare storage, else any the table
// holds, so it allocates only when no pooled storage is left. Pass it to
// ReleaseScheduleRequest once the request — and everything aliasing its
// graph, platform or costs: schedules, frozen views, responses under
// construction — is no longer referenced. The graph, platform and costs are
// read-only: a later decode of the same bytes takes them as they are.
func AcquireScheduleRequest() *ScheduleRequest {
	m := pooled(&spareInstances)
	for slots, k := usedSlots(), 0; m == nil && k < len(slots); k++ {
		m = pooled(&slots[k].pool)
	}
	req := new(ScheduleRequest)
	req.acquire(m)
	return req
}

// ReleaseScheduleRequest returns a decoded or acquired request's instance
// storage to the pools and leaves the request empty. Safe only once nothing
// aliases the request's graph, platform or costs.
func ReleaseScheduleRequest(req *ScheduleRequest) {
	if req != nil {
		req.release()
	}
}

// DecodeScheduleRequestInto is DecodeScheduleRequest decoding into req's
// existing instance storage — with a request from AcquireScheduleRequest,
// the graph decodes through its adjacency arena and the matrices into their
// previous rows, so the warm path allocates nothing proportional to the
// instance, and a member repeated byte for byte is not decoded at all.
// Whatever req held before is overwritten.
func DecodeScheduleRequestInto(req *ScheduleRequest, r io.Reader) error {
	*req = ScheduleRequest{Instance: req.Instance}
	_, err := readInto(req, r)
	return err
}

// instanceMemo is pooled instance storage, and what it remembers from one
// decode to the next: the exact bytes each member was last decoded from,
// which decodeBody compares a body's member against before decoding it; the
// fingerprint state the instance section hashed to, which instanceOf
// resumes from; and the instance's average-cost bottom levels, which every
// scheduler ranks its tasks by (Instance.bottomLevels). Decoding any member
// again forgets the last two (keep). Every method is a no-op on nil, the
// memo of a request decoded into storage of its own. The bytes are pool
// memory, dropped by a collection like the arenas beside them.
type instanceMemo struct {
	storage Instance // the graph, platform and costs decoded into
	// members are, in instanceFields order, the storage each member was
	// last decoded into and the bytes it was decoded from; an entry with no
	// obj remembers nothing.
	members [3]keptMember
	// fp is the fingerprint state after the instance section of the three
	// members' objects, valid while fpOK.
	fp   fnv128a
	fpOK bool
	// bl is the instance's sched.AvgBottomLevels, valid while non-nil.
	bl []float64
	// rest is the residual object decodeBody splices the parameters into.
	rest []byte
	// key is the last body's request key, slot the slot it was routed to,
	// and repeats whether that key was recent: together they say where the
	// storage goes back to.
	key     uint64
	slot    int
	repeats bool
}

// home returns the pool the storage goes back to: its key's slot when it
// remembers an instance seen before whose key still owns that slot, the
// spare pool otherwise.
func (m *instanceMemo) home() *sync.Pool {
	if m == nil || !m.repeats || m.members[0].obj == nil {
		return &spareInstances
	}
	if s := &instancePools[m.slot]; s.owner.Load() == m.key {
		return &s.pool
	}
	return &spareInstances
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
	m.fpOK, m.bl = false, nil
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

// bottomLevels returns in's average-cost bottom levels (sched.AvgBottomLevels)
// for RunOptions.BottomLevels and the specs that take them, or nil when they
// cannot be computed, which leaves the error to the scheduler's own attempt.
// Pooled storage computes them once per instance it holds: the memo keeps
// them until a member is decoded again. The slice is read-only.
func (in *Instance) bottomLevels() []float64 {
	m := in.memo
	if m != nil && m.bl != nil && m.holds(in) {
		return m.bl
	}
	bl, err := sched.AvgBottomLevels(in.Graph, in.Costs, in.Platform)
	if err != nil {
		return nil
	}
	if m != nil && m.holds(in) {
		m.bl = bl
	}
	return bl
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
