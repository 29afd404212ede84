// Package cachesim is a trace-driven cache simulator built entirely on NVBit
// mechanisms — the use case the paper's introduction motivates ("entire
// cache simulators can be built around these mechanisms", Section 6.1, and
// the CMP$im-style simulators cited in Section 1).
//
// Every lane-level global access reaches it through the memaccess stream —
// one record per executing lane, streamed device→host over a channel — and
// each delivered access is replayed through a configurable two-level
// set-associative LRU cache model at the launch-exit drain. The result is an
// offline cache simulator whose input is a dynamically collected,
// full-fidelity address trace — including addresses issued inside
// binary-only libraries — and whose completeness is a policy knob:
// ChannelBlock trades device spin time for a lossless trace.
package cachesim

import (
	"fmt"

	"nvbitgo/internal/tools/memaccess"
	"nvbitgo/nvbit"
)

// Config describes the modelled cache hierarchy.
type Config struct {
	LineBytes int // power of two
	L1Lines   int
	L1Ways    int
	L2Lines   int
	L2Ways    int
	// Capacity is the aggregate trace-channel capacity in records (split
	// across the per-SM shards).
	Capacity int
	// Policy selects the backpressure behaviour when a channel buffer
	// fills between flushes: ChannelDrop loses (and counts) records,
	// ChannelBlock guarantees a complete trace.
	Policy nvbit.ChannelPolicy
}

// DefaultConfig models a 32 KiB 4-way L1 with a 1 MiB 8-way L2 and 128-byte
// lines — matching the simulated device, so results can be validated against
// the device's own counters.
func DefaultConfig() Config {
	return Config{LineBytes: 128, L1Lines: 256, L1Ways: 4, L2Lines: 8192, L2Ways: 8, Capacity: 1 << 18}
}

// Stats are the replayed-cache results.
type Stats struct {
	Accesses uint64 // lane-level accesses replayed
	Stores   uint64
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64
	Dropped  uint64 // trace records lost to channel overflow (Drop policy)
}

// L1HitRate returns the fraction of accesses that hit in the modelled L1.
func (s Stats) L1HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Hits) / float64(s.Accesses)
}

// Tool is the cache-simulator tool.
type Tool struct {
	cfg   Config
	acc   *memaccess.Collector
	l1    *lru
	l2    *lru
	stats Stats
	shift uint
}

// New returns a cache-simulator tool with the given hierarchy model.
func New(cfg Config) *Tool {
	t := &Tool{cfg: cfg, l1: newLRU(cfg.L1Lines, cfg.L1Ways), l2: newLRU(cfg.L2Lines, cfg.L2Ways)}
	for 1<<t.shift < cfg.LineBytes {
		t.shift++
	}
	return t
}

// AtInit opens the access stream, which registers the device function.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	var err error
	if t.acc, err = memaccess.Open(n, "cachesim", t.cfg.Capacity, t.cfg.Policy, t.replay); err != nil {
		panic(fmt.Sprintf("cachesim: %v", err))
	}
}

// AtTerm implements the Tool interface; the framework closes the channel.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments memory instructions at launch entry; the framework
// drains the trace channel at launch exit.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if cbid != nvbit.CBLaunchKernel || exit {
		return
	}
	if err := t.acc.Instrument(n, p.Launch.Func); err != nil {
		panic(fmt.Sprintf("cachesim: %v", err))
	}
}

// replay is the access stream's consumer: it runs each delivered lane access
// through the cache model.
func (t *Tool) replay(addr uint64, _ int, s *memaccess.Site) {
	line := addr >> t.shift
	t.stats.Accesses++
	if s.IsStore {
		t.stats.Stores++
	}
	if t.l1.access(line) {
		t.stats.L1Hits++
		return
	}
	t.stats.L1Misses++
	if t.l2.access(line) {
		t.stats.L2Hits++
	} else {
		t.stats.L2Misses++
	}
}

// Stats returns the accumulated replay results; Dropped reflects the
// channel's atomic loss counter.
func (t *Tool) Stats() Stats {
	st := t.stats
	st.Dropped = t.ChannelStats().Dropped
	return st
}

// ChannelStats returns the trace channel's counter snapshot.
func (t *Tool) ChannelStats() nvbit.ChannelStats { return t.acc.Stats() }

// lru is a set-associative LRU cache model (host side).
type lru struct {
	sets, ways int
	tags       []uint64
	ticks      []uint64
	tick       uint64
}

func newLRU(lines, ways int) *lru {
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	for sets&(sets-1) != 0 {
		sets--
	}
	return &lru{sets: sets, ways: ways, tags: make([]uint64, sets*ways), ticks: make([]uint64, sets*ways)}
}

func (c *lru) access(line uint64) bool {
	c.tick++
	key := line + 1
	base := (int(line) & (c.sets - 1)) * c.ways
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

var _ nvbit.Tool = (*Tool)(nil)
