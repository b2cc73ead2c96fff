package service

import (
	"container/list"
	"sync"
)

// Cache is a sharded LRU keyed by Fingerprint. Sharding bounds lock
// contention under concurrent traffic: a Get or Put locks one shard, not the
// whole cache, so goroutines hitting different shards never serialize. The
// fingerprint is an FNV digest — uniformly distributed — so its first byte
// is already a good shard selector.
//
// Values are opaque (the service stores serialized response bytes); callers
// must treat stored values as immutable, since
// a value handed out by Get is shared with every other hit on the same key.
type Cache struct {
	shards []cacheShard
	mask   uint8
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Fingerprint]*list.Element
}

type cacheEntry struct {
	key Fingerprint
	val any
}

// NewCache creates a cache holding up to capacity entries split over
// nShards shards (rounded up to a power of two, clamped to [1, 256]).
// Capacity is divided evenly; each shard evicts independently, which is the
// usual LRU-approximation trade of sharded caches. The shard maps start
// empty and grow with what is stored: sized for their capacity up front, the
// default 4 096 entries are most of an idle server's heap before any arrive.
func NewCache(capacity, nShards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if nShards < 1 {
		nShards = 1
	}
	if nShards > 256 {
		nShards = 256
	}
	pow := 1
	for pow < nShards {
		pow *= 2
	}
	perShard := (capacity + pow - 1) / pow
	c := &Cache{shards: make([]cacheShard, pow), mask: uint8(pow - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			ll:       list.New(),
			items:    make(map[Fingerprint]*list.Element),
		}
	}
	return c
}

func (c *Cache) shard(key Fingerprint) *cacheShard {
	return &c.shards[key[0]&c.mask]
}

// Get returns the value stored under key and promotes it to most recently
// used.
func (c *Cache) Get(key Fingerprint) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, replacing any existing value and evicting the
// least recently used entry of the shard when it is full.
func (c *Cache) Put(key Fingerprint, val any) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.items, oldest.Value.(*cacheEntry).key)
		}
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.ll.Len()
		s.mu.Unlock()
	}
	return total
}
