// Package jitcache is the content-addressed instrumentation cache behind
// the framework's JIT pipeline.
//
// The paper's Figure 5 shows that the dominant instrumentation cost is
// first-launch disassembly and code generation, and its measured worst case
// (ilbdc, 8-32% overhead) is exactly "many unique kernels, each
// JIT-instrumented once and thrown away". CPU DBI frameworks amortize that
// cost with persistent code caches; this package is the GPU analog.
//
// The cache is a two-tier store of opaque, versioned blobs addressed by a
// SHA-256 key derived from everything that can influence the cached bytes
// (function code, HAL family, tool identity, instrumentation plan,
// framework version — or, for a compiled module, its PTX and the compiler's
// version; see internal/core's key derivation and docs/jitcache.md):
//
//   - an in-memory LRU tier, bounded in bytes, shared safely between
//     concurrent attaches;
//   - an optional disk tier (content-addressed object files under
//     <dir>/objects) written through internal/atomicfile, so a crashed or
//     killed writer can never publish a torn entry.
//
// Every disk entry carries a header with magic, format version, payload
// length and payload checksum; corrupted, truncated or version-skewed
// entries are detected on read, evicted from disk, and reported as misses
// so the caller falls back to a fresh JIT.
//
// Do provides singleflight-style coalescing: when several attaches race to
// instrument the same function with the same key, exactly one runs the
// generator and the rest block and share its result.
package jitcache

import (
	"container/list"
	"fmt"
	"sync"
)

// DefaultMemBytes bounds the in-memory tier when the caller passes a
// non-positive budget to New.
const DefaultMemBytes = 64 << 20

// Stats is a snapshot of the cache's counters. All fields are cumulative
// except MemEntries/MemBytes, which are gauges of the in-memory tier.
type Stats struct {
	Lookups uint64 // Get + Do calls
	Hits    uint64 // MemHits + DiskHits + Coalesced
	Misses  uint64

	MemHits   uint64 // served from the in-memory LRU
	DiskHits  uint64 // served from a validated disk entry
	Coalesced uint64 // served by waiting on another caller's in-flight generator

	Generations    uint64 // times a Do generator actually ran
	CorruptEvicted uint64 // disk entries evicted for failing validation
	Evicted        uint64 // entries LRU-evicted from the memory tier

	BytesRead    uint64 // payload bytes served from the disk tier
	BytesWritten uint64 // payload bytes written to the disk tier

	MemEntries int
	MemBytes   int64
}

// HitRatio returns Hits/Lookups, or 0 before the first lookup.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// flight is one in-progress generation; waiters block on done.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// entry is one in-memory cache slot.
type entry struct {
	key  Key
	data []byte
}

// Cache is a two-tier (memory LRU + optional disk) content-addressed blob
// store with singleflight coalescing. It is safe for concurrent use.
type Cache struct {
	dir     string // disk tier root, "" = memory-only
	maxMem  int64
	mu      sync.Mutex
	byKey   map[Key]*list.Element
	lru     *list.List // front = most recent
	memSize int64
	flights map[Key]*flight
	stats   Stats
}

// New opens a cache. dir selects the disk tier root ("" for a memory-only
// cache); it is created if missing. maxMemBytes bounds the in-memory tier
// (<= 0 selects DefaultMemBytes). Entries larger than the memory budget
// bypass the memory tier but still persist to disk.
func New(dir string, maxMemBytes int64) (*Cache, error) {
	if maxMemBytes <= 0 {
		maxMemBytes = DefaultMemBytes
	}
	c := &Cache{
		dir:     dir,
		maxMem:  maxMemBytes,
		byKey:   make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*flight),
	}
	if dir != "" {
		if err := c.initDir(); err != nil {
			return nil, fmt.Errorf("jitcache: %w", err)
		}
	}
	return c, nil
}

// Dir returns the disk tier root, "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = c.lru.Len()
	s.MemBytes = c.memSize
	return s
}

// Get returns the blob stored under key, consulting the memory tier first
// and then the disk tier (promoting a disk hit into memory). The returned
// slice must not be modified by the caller.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	c.stats.Lookups++
	if data, ok := c.memGetLocked(key); ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	if data, ok := c.diskGet(key); ok {
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.stats.BytesRead += uint64(len(data))
		c.memPutLocked(key, data)
		c.mu.Unlock()
		return data, true
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores a blob under key in both tiers. A disk-tier write failure
// leaves the memory tier populated and is returned for observability; the
// cache stays usable.
func (c *Cache) Put(key Key, data []byte) error {
	c.mu.Lock()
	c.memPutLocked(key, data)
	c.mu.Unlock()
	return c.diskPut(key, data)
}

// Delete removes key from both tiers. It exists for callers that discover
// an entry is unusable after passing checksum validation (e.g. an
// artifact-codec version skew).
func (c *Cache) Delete(key Key) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
	c.diskDelete(key)
}

// Do returns the blob under key, generating and storing it with gen on a
// miss. Concurrent Do calls for the same key are coalesced: exactly one
// runs gen, the rest wait and share the result. hit reports whether the
// caller was served without running gen itself (memory, disk, or a
// coalesced wait). On gen failure nothing is stored and every coalesced
// waiter receives the same error.
func (c *Cache) Do(key Key, gen func() ([]byte, error)) (data []byte, hit bool, err error) {
	c.mu.Lock()
	c.stats.Lookups++
	if data, ok := c.memGetLocked(key); ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return data, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		if f.err != nil {
			c.stats.Misses++
			c.mu.Unlock()
			return nil, false, f.err
		}
		c.stats.Hits++
		c.stats.Coalesced++
		c.mu.Unlock()
		return f.data, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// Sole owner of this key: probe disk, then generate.
	if data, ok := c.diskGet(key); ok {
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.stats.BytesRead += uint64(len(data))
		c.memPutLocked(key, data)
		c.finishFlightLocked(key, f, data, nil)
		c.mu.Unlock()
		return data, true, nil
	}
	data, err = gen()
	c.mu.Lock()
	c.stats.Misses++
	c.stats.Generations++
	if err != nil {
		c.finishFlightLocked(key, f, nil, err)
		c.mu.Unlock()
		return nil, false, err
	}
	c.memPutLocked(key, data)
	c.finishFlightLocked(key, f, data, nil)
	c.mu.Unlock()
	_ = c.diskPut(key, data) // disk degradation must not fail the JIT
	return data, false, nil
}

// finishFlightLocked publishes a flight's result and retires it.
func (c *Cache) finishFlightLocked(key Key, f *flight, data []byte, err error) {
	f.data, f.err = data, err
	delete(c.flights, key)
	close(f.done)
}

// memGetLocked looks up the memory tier and refreshes recency.
func (c *Cache) memGetLocked(key Key) ([]byte, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// memPutLocked inserts (or refreshes) a memory-tier entry and evicts from
// the LRU tail until the byte budget holds. Blobs larger than the whole
// budget are not kept in memory.
func (c *Cache) memPutLocked(key Key, data []byte) {
	if el, ok := c.byKey[key]; ok {
		c.memSize += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		c.lru.MoveToFront(el)
	} else if int64(len(data)) <= c.maxMem {
		c.byKey[key] = c.lru.PushFront(&entry{key: key, data: data})
		c.memSize += int64(len(data))
	}
	for c.memSize > c.maxMem {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.stats.Evicted++
	}
}

// removeLocked drops one memory-tier entry.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.memSize -= int64(len(e.data))
}
