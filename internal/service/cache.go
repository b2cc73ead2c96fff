package service

import "sync"

// Cache is a sharded LRU map that never holds more than its capacity. It
// backs three stores: the response cache (Fingerprint → serialized response,
// NewCache) and the body-digest front indexes of a server and of the
// coordinator's door (BodyDigest → what the body decoded to,
// NewFrontIndex). Sharding bounds lock contention under concurrent traffic:
// a call locks one shard, not the whole cache, so goroutines hitting
// different shards never serialize. Both key types are uniformly
// distributed digests, so a few of their bits are already a good shard
// selector.
//
// Get, Put and Delete are O(1). Each shard is a slice of entries threaded
// by index into a recency list; a Put into a full shard reuses the least
// recently used entry in place, so a full cache allocates nothing per Put.
// A shard holds no map and no entries before its first Put: sized for
// their capacity up front, the default 4 096 entries would be most of an
// idle server's heap before any arrive.
//
// Values are handed out as stored: callers must treat them as immutable,
// since a value returned by Get is shared with every other Get of its key.
type Cache[K comparable, V any] struct {
	shards   []lruShard[K, V]
	perShard int
	shardOf  func(K) uint64
}

type lruShard[K comparable, V any] struct {
	mu    sync.Mutex
	index map[K]int
	// ents[0] is the recency list's sentinel: its next is the most recently
	// used entry, its prev the least.
	ents []lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int
}

// newLRU creates a cache of at most capacity entries (minimum 1) over the
// largest power of two of shards ≤ min(nShards, capacity, 256), so that the
// per-shard bounds never add up to more than the capacity. shardOf picks a
// key's shard from its low bits.
func newLRU[K comparable, V any](capacity, nShards int, shardOf func(K) uint64) *Cache[K, V] {
	capacity = max(capacity, 1)
	pow := 1
	for pow*2 <= min(nShards, capacity, 256) {
		pow *= 2
	}
	return &Cache[K, V]{shards: make([]lruShard[K, V], pow), perShard: capacity / pow, shardOf: shardOf}
}

// NewCache creates a response cache of at most capacity entries over up to
// nShards shards, selected by a fingerprint's first byte.
func NewCache(capacity, nShards int) *Cache[Fingerprint, []byte] {
	return newLRU[Fingerprint, []byte](capacity, nShards, func(fp Fingerprint) uint64 { return uint64(fp[0]) })
}

// NewFrontIndex creates a body-digest front index of at most capacity
// entries over up to nShards shards. Evicting an alias costs its body one
// decode the next time it is seen, never a wrong answer.
func NewFrontIndex[V any](capacity, nShards int) *Cache[BodyDigest, V] {
	return newLRU[BodyDigest, V](capacity, nShards, func(d BodyDigest) uint64 { return d[1] })
}

func (c *Cache[K, V]) shard(key K) *lruShard[K, V] {
	return &c.shards[c.shardOf(key)&uint64(len(c.shards)-1)]
}

// Get returns the value stored under key and promotes it to most recently
// used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.unlink(i)
	s.link(i)
	return s.ents[i].val, true
}

// Put stores val under key, replacing any existing value and evicting the
// least recently used entry of the shard when it is full.
func (c *Cache[K, V]) Put(key K, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = make(map[K]int)
		s.ents = make([]lruEntry[K, V], 1)
	}
	i, ok := s.index[key]
	switch {
	case ok:
		s.unlink(i)
	case len(s.index) < c.perShard:
		i = len(s.ents)
		s.ents = append(s.ents, lruEntry[K, V]{key: key})
	default: // reuse the least recently used entry
		i = s.ents[0].prev
		s.unlink(i)
		delete(s.index, s.ents[i].key)
		s.ents[i].key = key
	}
	s.index[key] = i
	s.ents[i].val = val
	s.link(i)
}

// Delete drops key; it is a no-op when key is absent. The shard's last entry
// moves into the freed slot, so the entries stay dense.
func (c *Cache[K, V]) Delete(key K) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return
	}
	s.unlink(i)
	delete(s.index, key)
	last := len(s.ents) - 1
	if i != last {
		s.ents[i] = s.ents[last]
		s.ents[s.ents[i].prev].next = i
		s.ents[s.ents[i].next].prev = i
		s.index[s.ents[i].key] = i
	}
	s.ents[last] = lruEntry[K, V]{}
	s.ents = s.ents[:last]
}

// Len returns the number of stored entries across all shards.
func (c *Cache[K, V]) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.index)
		s.mu.Unlock()
	}
	return total
}

func (s *lruShard[K, V]) unlink(i int) {
	e := &s.ents[i]
	s.ents[e.prev].next = e.next
	s.ents[e.next].prev = e.prev
}

// link inserts the unlinked entry i at the front of the recency list.
func (s *lruShard[K, V]) link(i int) {
	head := s.ents[0].next
	s.ents[i].prev, s.ents[i].next = 0, head
	s.ents[head].prev = i
	s.ents[0].next = i
}
