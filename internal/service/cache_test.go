package service

import (
	"fmt"
	"sync"
	"testing"
)

func fpFromInt(i int) Fingerprint {
	var fp Fingerprint
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	fp[2] = byte(i >> 16)
	return fp
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(8, 2)
	key := fpFromInt(1)
	if _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	c.Put(key, []byte("hello"))
	v, ok := c.Get(key)
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %v, %v; want hello, true", v, ok)
	}
	c.Put(key, []byte("world"))
	if v, _ := c.Get(key); string(v) != "world" {
		t.Fatalf("Put did not replace: got %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	// One shard so eviction order is exact.
	c := NewCache(2, 1)
	c.Put(fpFromInt(1), []byte("1"))
	c.Put(fpFromInt(2), []byte("2"))
	// Touch 1 so 2 becomes the LRU entry.
	if _, ok := c.Get(fpFromInt(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(fpFromInt(3), []byte("3"))
	if _, ok := c.Get(fpFromInt(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.Get(fpFromInt(i)); !ok {
			t.Fatalf("entry %d evicted unexpectedly", i)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fpFromInt(i % 64)
				c.Put(key, fmt.Appendf(nil, "v%d", i%64))
				if v, ok := c.Get(key); ok {
					if string(v) != fmt.Sprintf("v%d", i%64) {
						t.Errorf("worker %d read %v for key %d", w, v, i%64)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCacheShardClamping(t *testing.T) {
	// Degenerate configurations must still work, and an overfill must never
	// leave more entries than the capacity, whatever the shard count.
	for _, cfg := range []struct{ capacity, shards int }{{0, 0}, {1, 1}, {3, 1000}, {100, 7}, {1, 16}, {1000, 16}, {4097, 16}} {
		c := NewCache(cfg.capacity, cfg.shards)
		c.Put(fpFromInt(1), []byte("x"))
		if _, ok := c.Get(fpFromInt(1)); !ok {
			t.Errorf("NewCache(%d,%d): lost the only entry", cfg.capacity, cfg.shards)
		}
		for i := 0; i < 4*cfg.capacity+256; i++ {
			c.Put(fpFromInt(i), nil)
			if n := c.Len(); n > max(cfg.capacity, 1) {
				t.Fatalf("NewCache(%d,%d) holds %d entries after an overfill of %d", cfg.capacity, cfg.shards, n, i+1)
			}
		}
		checkLRU(t, c)
	}
}

// TestFrontIndexEvictsLeastRecentlyUsed: on one shard, an alias looked up
// between two admissions outlives one that was not. Repeated on fresh
// indexes, so that an arbitrary victim choice cannot pass by luck.
func TestFrontIndexEvictsLeastRecentlyUsed(t *testing.T) {
	for round := uint64(0); round < 32; round++ {
		x := NewFrontIndex[uint64](2, 1)
		touched, untouched := BodyDigest{round, 1}, BodyDigest{round, 2}
		x.Put(touched, 1)
		x.Put(untouched, 2)
		if _, ok := x.Get(touched); !ok {
			t.Fatal("alias missing before any eviction")
		}
		x.Put(BodyDigest{round, 3}, 3)
		if _, ok := x.Get(untouched); ok {
			t.Fatalf("round %d: the untouched alias survived the admission", round)
		}
		if v, ok := x.Get(touched); !ok || v != 1 {
			t.Fatalf("round %d: the touched alias was evicted", round)
		}
	}
}

// TestCacheRecycledEntriesNeverCrossKeys: a full shard reuses its least
// recently used entry in place and Delete moves the last entry into the
// freed slot, so concurrent Put, Get and Delete on a small cache must never
// hand out a value stored under another key — run it under -race.
func TestCacheRecycledEntriesNeverCrossKeys(t *testing.T) {
	c := NewCache(8, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := (i*7 + w*3) % 40
				switch (i + w) % 3 {
				case 0:
					c.Put(fpFromInt(k), []byte{byte(k)})
				case 1:
					if v, ok := c.Get(fpFromInt(k)); ok && (len(v) != 1 || int(v[0]) != k) {
						t.Errorf("Get(%d) returned %v", k, v)
						return
					}
				default:
					c.Delete(fpFromInt(k))
				}
			}
		}(w)
	}
	wg.Wait()
	checkLRU(t, c)
}

// checkLRU verifies every shard's structure: within its bound, each key
// indexes the entry holding it, and the recency list links exactly the
// indexed entries, in both directions.
func checkLRU[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		if s.index == nil {
			continue
		}
		if len(s.index) > c.perShard || len(s.ents) != len(s.index)+1 {
			t.Fatalf("shard %d: %d keys in %d entries, bound %d", si, len(s.index), len(s.ents), c.perShard)
		}
		for k, i := range s.index {
			if s.ents[i].key != k {
				t.Fatalf("shard %d: key %v indexes entry %d, which holds %v", si, k, i, s.ents[i].key)
			}
		}
		n, last := 0, 0
		for i := s.ents[0].next; i != 0; last, i = i, s.ents[i].next {
			if s.ents[i].prev != last {
				t.Fatalf("shard %d: entry %d's prev is %d, want %d", si, i, s.ents[i].prev, last)
			}
			if n++; n > len(s.index) {
				t.Fatalf("shard %d: recency list is longer than its %d keys", si, len(s.index))
			}
		}
		if n != len(s.index) || s.ents[0].prev != last {
			t.Fatalf("shard %d: recency list links %d of %d keys", si, n, len(s.index))
		}
	}
}
