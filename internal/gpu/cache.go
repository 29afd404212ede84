package gpu

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

func newCache(lines, ways int) *cache {
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	// Round sets down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets--
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

// reset empties the cache.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.ticks[i] = 0
	}
}
