package service

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
)

// BodyDigest is a 128-bit keyed digest of a request body's raw bytes. The
// key is drawn when the process starts, so a digest means nothing outside
// the process: it is never a cache key, a route or an id, only the key of a
// BodyIndex that remembers which canonical Fingerprint a body decoded to.
type BodyDigest [2]uint64

// bodySeeds key the two 64-bit halves of a BodyDigest. Every server and
// coordinator of one process shares them, which is what lets a door pass the
// digest it took to an in-process shard.
var bodySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func digestBody(path string, body []byte) BodyDigest {
	// The path separates one body POSTed to two endpoints. XOR-ing its hash
	// into one half is enough: the halves are independently keyed, so two
	// (path, body) pairs still collide only on a 128-bit coincidence.
	return BodyDigest{
		maphash.Bytes(bodySeeds[0], body) ^ maphash.String(bodySeeds[0], path),
		maphash.Bytes(bodySeeds[1], body),
	}
}

// maxPooledBody bounds both the buffer a declared Content-Length may
// pre-size (the header is untrusted) and the buffers the pool keeps: one
// 32 MiB upload must not pin 32 MiB for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// acquireBody reads r to EOF into a pooled buffer, pre-sized from the
// request's declared Content-Length so a body is read in one pass without
// regrowing. The buffer is returned even on a read error — it then holds the
// bytes read before the error — and must go back through ReleaseBody once
// nothing references its bytes.
func acquireBody(r io.Reader, contentLength int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	if n := min(contentLength, maxPooledBody); n > 0 {
		// ReadFrom wants bytes.MinRead spare bytes to discover EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf, err
}

// ReadBody buffers r's body, bounded by limit, in a pooled buffer the caller
// returns with ReleaseBody. A body that cannot be read whole is answered from
// the read error alone — 413 past the limit, 400 otherwise — whatever the
// bytes before the error were: ReadBody then returns no buffer, the status
// and an error that is safe to echo.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, int, error) {
	buf, err := acquireBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err == nil {
		return buf, http.StatusOK, nil
	}
	ReleaseBody(buf)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	return nil, status, fmt.Errorf("decoding request: %w", err)
}

// ReleaseBody recycles a buffer obtained from acquireBody.
func ReleaseBody(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBody+bytes.MinRead {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}

// BodyIndex is a bounded map from body digests to what their bodies decoded
// to — the front index that lets a byte-identical repeat skip the decode.
// It is sharded like Cache, grows lazily (an index nothing was admitted to
// holds no map at all) and never exceeds its capacity: admitting into a full
// shard displaces an arbitrary entry of that shard, which costs the
// displaced body one decode the next time it is seen, never a wrong answer.
type BodyIndex[V any] struct {
	shards   []bodyIndexShard[V]
	perShard int
}

type bodyIndexShard[V any] struct {
	mu sync.Mutex
	m  map[BodyDigest]V
}

// NewBodyIndex creates an index holding at most capacity entries (minimum
// 1) over up to nShards shards — fewer when the capacity is smaller, so that
// the per-shard bounds never add up to more than the capacity.
func NewBodyIndex[V any](capacity, nShards int) *BodyIndex[V] {
	capacity = max(capacity, 1)
	pow := 1
	for pow*2 <= min(nShards, capacity, 256) {
		pow *= 2
	}
	return &BodyIndex[V]{shards: make([]bodyIndexShard[V], pow), perShard: capacity / pow}
}

func (x *BodyIndex[V]) shard(d BodyDigest) *bodyIndexShard[V] {
	return &x.shards[d[1]&uint64(len(x.shards)-1)]
}

// Get returns what was admitted under d.
func (x *BodyIndex[V]) Get(d BodyDigest) (V, bool) {
	s := x.shard(d)
	s.mu.Lock()
	v, ok := s.m[d]
	s.mu.Unlock()
	return v, ok
}

// Put admits v under d.
func (x *BodyIndex[V]) Put(d BodyDigest, v V) {
	s := x.shard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[BodyDigest]V)
	}
	if _, ok := s.m[d]; !ok && len(s.m) >= x.perShard {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[d] = v
}

// Delete drops d; it is a no-op when d was never admitted.
func (x *BodyIndex[V]) Delete(d BodyDigest) {
	s := x.shard(d)
	s.mu.Lock()
	delete(s.m, d)
	s.mu.Unlock()
}

// Len returns the number of admitted digests across all shards.
func (x *BodyIndex[V]) Len() int {
	total := 0
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}
