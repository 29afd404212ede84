package gpu

import "sync"

// Associativity of the two cache levels. The parallel scheduler builds its
// per-SM L2 shards with l2Ways too, so a shard is a 1/NumSMs-capacity model
// of the shared L2 (docs/scheduler.md).
const (
	l1Ways = 4
	l2Ways = 8
)

// cache is a set-associative LRU cache model tracking line presence only (no
// data — the simulator is functionally backed by Device.pages; the cache model
// just informs the timing model and statistics). A cache instance is owned by
// a single scheduler worker at a time and is not safe for concurrent use.
type cache struct {
	sets  int
	ways  int
	tags  []uint64 // sets*ways entries; 0 = empty
	ticks []uint64 // LRU timestamps
	tick  uint64
}

// cacheShape keys cachePools: a pooled cache serves only its own geometry.
type cacheShape struct{ sets, ways int }

// cachePools holds, per geometry, the empty caches of closed devices and of
// finished parallel launches (their L2 shards), so a device's caches are
// drawn from there before they are allocated. Values are *sync.Pool.
var cachePools sync.Map

func newCache(lines, ways int) *cache {
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	// Round sets down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets--
	}
	if p, ok := cachePools.Load(cacheShape{sets, ways}); ok {
		if c, ok := p.(*sync.Pool).Get().(*cache); ok {
			return c
		}
	}
	return &cache{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, sets*ways),
		ticks: make([]uint64, sets*ways),
	}
}

// access touches a line address and reports whether it hit. Misses fill.
func (c *cache) access(line uint64) bool {
	c.tick++
	key := line + 1 // avoid the 0 = empty sentinel
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	victim, oldest := base, c.ticks[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == key {
			c.ticks[i] = c.tick
			return true
		}
		if c.ticks[i] < oldest {
			victim, oldest = i, c.ticks[i]
		}
	}
	c.tags[victim] = key
	c.ticks[victim] = c.tick
	return false
}

// reset empties the cache and restarts its LRU clock: it is then what
// newCache allocates.
func (c *cache) reset() {
	clear(c.tags)
	clear(c.ticks)
	c.tick = 0
}

// recycle resets the cache and pools it for the next newCache of its
// geometry. The caller must drop its reference.
func (c *cache) recycle() {
	c.reset()
	key := cacheShape{c.sets, c.ways}
	p, ok := cachePools.Load(key)
	if !ok {
		p, _ = cachePools.LoadOrStore(key, new(sync.Pool))
	}
	p.(*sync.Pool).Put(c)
}
