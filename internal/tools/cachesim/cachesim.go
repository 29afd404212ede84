// Package cachesim is a trace-driven cache simulator built entirely on NVBit
// mechanisms — the use case the paper's introduction motivates ("entire
// cache simulators can be built around these mechanisms", Section 6.1, and
// the CMP$im-style simulators cited in Section 1).
//
// Every warp-level global memory instruction is instrumented with a device
// function that appends one record per executing lane — the 64-bit address
// plus access flags — to a device→host streaming channel, claiming slots
// with the channel's warp-aggregated reserve fragment. Delivered buffers are
// replayed through a configurable two-level set-associative LRU cache model
// at each launch-exit drain. The result is an offline cache simulator whose
// input is a dynamically collected, full-fidelity address trace — including
// addresses issued inside binary-only libraries — and whose completeness is
// a policy knob: ChannelBlock trades device spin time for a lossless trace.
package cachesim

import (
	"encoding/binary"
	"fmt"

	"nvbitgo/nvbit"
)

// Record flags.
const (
	FlagStore = 1 << 0
	FlagWide  = 1 << 1 // 8-byte access
	FlagAtom  = 1 << 2
)

// recBytes is the size of one trace record: u64 address + u32 flags + u32 pad.
const recBytes = 16

// toolPTX is the pushing device function; the channel writes its claim and
// commit at the two markers (nvbit.ChannelConfig.ToolPTX). Guard-false lanes
// retire before the claim, so the always-true %p1 makes every remaining lane
// claim its own slot; %rd1 receives each lane's record address.
const toolPTX = `
.toolfunc cachesim_rec(.param .u32 pred, .param .u64 base, .param .u32 off, .param .u32 flags, .param .u64 ctrl)
{
	.reg .u32 %r<11>;
	.reg .u64 %rd<6>;
	.reg .pred %p<5>;
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	setp.ne.u32 %p1, %r0, 0;
@RESERVE@
	// Reconstruct and store the access address.
	ld.param.u64 %rd0, [base];
	ld.param.u32 %r0, [off];
	cvt.u64.u32 %rd4, %r0;
	add.u64 %rd0, %rd0, %rd4;
	st.global.u64 [%rd1], %rd0;
	ld.param.u32 %r0, [flags];
	st.global.u32 [%rd1+8], %r0;
@COMMIT@
	ret;
}
`

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
	ch    *nvbit.Channel
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

// AtInit opens the trace channel, which registers the device function.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	var err error
	t.ch, err = n.OpenChannel(nvbit.ChannelConfig{
		Name:         "cachesim",
		RecordBytes:  recBytes,
		TotalRecords: t.cfg.Capacity,
		Policy:       t.cfg.Policy,
		OnBatch:      t.replay,
		ToolPTX:      toolPTX,
		PushPred:     "%p1",
	})
	if err != nil {
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
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(fmt.Sprintf("cachesim: %v", err))
	}
	for _, i := range insts {
		if i.GetMemOpSpace() != nvbit.MemGlobal {
			continue
		}
		mref, ok := i.MemOperand()
		if !ok {
			continue
		}
		flags := uint32(0)
		if i.IsStore() {
			flags |= FlagStore
		}
		if mref.Wide {
			flags |= FlagWide
		}
		n.InsertCallArgs(i, "cachesim_rec", nvbit.IPointBefore,
			nvbit.ArgSitePred(),
			nvbit.ArgReg64(int(mref.Base)),
			nvbit.ArgConst32(uint32(mref.Offset)),
			nvbit.ArgConst32(flags),
			nvbit.ArgDevPtr(t.ch.CtrlAddr()))
	}
}

// replay is the channel's OnBatch consumer: it runs each delivered buffer
// through the cache model.
func (t *Tool) replay(data []byte) {
	for off := 0; off+recBytes <= len(data); off += recBytes {
		addr := binary.LittleEndian.Uint64(data[off:])
		flags := binary.LittleEndian.Uint32(data[off+8:])
		line := addr >> t.shift
		t.stats.Accesses++
		if flags&FlagStore != 0 {
			t.stats.Stores++
		}
		if t.l1.access(line) {
			t.stats.L1Hits++
			continue
		}
		t.stats.L1Misses++
		if t.l2.access(line) {
			t.stats.L2Hits++
		} else {
			t.stats.L2Misses++
		}
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
func (t *Tool) ChannelStats() nvbit.ChannelStats { return t.ch.Stats() }

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
