// Package profile is the CUPTI-activity-API analog of this NVBit
// reproduction: a low-overhead observability layer that records what the
// driver, the simulated device and the NVBit core did on a shared timeline.
//
// Every observable event — context creation, module load, memory traffic,
// kernel launches (with per-SM spans), the six JIT-compilation phases of the
// paper's Section 5.2 and the time spent inside tool callbacks — is emitted
// as one typed Record into a Collector. The collector is a bounded ring:
// when it fills, new records are dropped and counted, never blocking the
// workload. Scheduler workers never touch the collector directly; they fill
// per-SM/per-worker Shards that the launching goroutine merges in ascending
// SM order, the same fixed-order merge discipline the statistics shards use,
// so record IDs and ordering are bit-identical run to run and identical
// (modulo timing fields) across the sequential and parallel schedulers.
//
// The zero-tracing path is allocation-free: every emission site is guarded
// by a nil collector check, and the gpu launch path allocates nothing when
// no collector is attached (enforced by TestLaunchNoTracingZeroAlloc).
package profile

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies an activity record, mirroring CUPTI's activity kinds.
type Kind uint8

const (
	// KindCtxCreate is a context creation (cuCtxCreate).
	KindCtxCreate Kind = iota
	// KindModuleLoad is a module load (cuModuleLoadData); JIT-phase
	// records reference it through Parent.
	KindModuleLoad
	// KindJITPhase is one of the six JIT-compilation phases of Section
	// 5.2 (retrieve, disassemble, convert, user-code, codegen, swap).
	KindJITPhase
	// KindMemAlloc is a device allocation (cuMemAlloc).
	KindMemAlloc
	// KindMemFree is a device free (cuMemFree).
	KindMemFree
	// KindMemcpyH2D is a host-to-device copy.
	KindMemcpyH2D
	// KindMemcpyD2H is a device-to-host copy.
	KindMemcpyD2H
	// KindKernel is one kernel launch executed on the device, carrying
	// the launch metrics; its per-SM children are KindSMSpan records.
	KindKernel
	// KindSMSpan is one SM's share of a kernel launch.
	KindSMSpan
	// KindToolCallback is the time spent inside one tool callback
	// invocation (the interposition overhead a tool adds).
	KindToolCallback
	// KindChannelFlush is one device→host streaming-channel buffer flush:
	// a full per-SM shard shipped to the host mid-kernel (at a CTA or
	// warp-sweep boundary) or the remainder drained at launch exit.
	KindChannelFlush
	// KindChannelDrain is one launch-exit channel drain — the barrier at
	// which buffered flushes are merged in ascending-SM order and
	// delivered to the consumer; its flush children reference it through
	// Parent.
	KindChannelDrain
	numKinds
)

var kindNames = [numKinds]string{
	"ctx_create", "module_load", "jit_phase", "mem_alloc", "mem_free",
	"memcpy_h2d", "memcpy_d2h", "kernel", "sm_span", "tool_callback",
	"channel_flush", "channel_drain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Record is one typed activity record. Start and Dur are offsets from the
// collector's epoch; together with Cycles they are the only fields that
// legitimately differ between the sequential and parallel schedulers (the
// timing model's cycle counts depend on the L2 sharding, see
// docs/scheduler.md) — Fingerprint zeroes exactly those.
type Record struct {
	Kind   Kind
	ID     uint64 // correlation id, assigned in emission order (1-based)
	Parent uint64 // enclosing record's ID, 0 when none

	Name   string // kernel name, JIT phase label, or driver call name
	Kernel string // owning kernel/function name for JIT phases

	Start time.Duration // offset from the collector epoch
	Dur   time.Duration

	SM    int    // SM index for KindSMSpan, -1 otherwise
	Addr  uint64 // device address for memory records
	Bytes uint64 // size for memory records, code bytes for module loads
	Count uint64 // record count for channel flush/drain records

	// Kernel-launch metrics (KindKernel, and per-SM slices of them on
	// KindSMSpan records).
	Grid, Block  [3]int
	CTAs         int
	WarpsRetired uint64
	WarpInstrs   uint64
	ThreadInstrs uint64
	Cycles       uint64 // timing-model cycles (scheduler-dependent)
	Instrumented bool   // the instrumented code version was resident
	Fault        string // fault kind name; empty on success

	// Code-generator metrics (KindJITPhase "codegen" records): the sites
	// trampolines emitted during this phase serve, the trampolines themselves
	// (Visits: one serves a straight-line run of sites) and the summed size
	// of their save sets, so what liveness sizing and visit coalescing save
	// per site is visible in the timeline. InlinedSites counts sites
	// materialized via inline injection instead of a trampoline; they
	// contribute nothing to Trampolines, Visits or SavedRegs.
	Trampolines  uint64
	Visits       uint64
	SavedRegs    uint64
	InlinedSites uint64
}

// Fingerprint returns a copy of the record with the timing-derived fields
// (Start, Dur, Cycles) zeroed. Two runs of the same workload — under either
// scheduler — produce identical fingerprint sequences.
func (r Record) Fingerprint() Record {
	r.Start, r.Dur, r.Cycles = 0, 0, 0
	return r
}

// DefaultCapacity is the default collector ring capacity.
const DefaultCapacity = 1 << 16

// Collector accumulates activity records into a bounded ring. All methods
// are safe for concurrent use; the hot emission paths, however, are reached
// only from the launching goroutine (scheduler workers go through Shards).
type Collector struct {
	mu      sync.Mutex
	epoch   time.Time
	ring    []Record
	cap     int
	dropped uint64
	nextID  uint64

	agg map[string]*KernelMetrics
}

// NewCollector returns a collector with the given ring capacity (records);
// zero or negative selects DefaultCapacity.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		epoch: time.Now(),
		ring:  make([]Record, 0, capacity),
		cap:   capacity,
		agg:   make(map[string]*KernelMetrics),
	}
}

// Now returns the current offset from the collector's epoch — the timebase
// every record's Start uses.
func (c *Collector) Now() time.Duration { return time.Since(c.epoch) }

// Emit appends one record, assigning its correlation ID, and returns the ID.
// When the ring is full the record is dropped (and counted), but the ID is
// still assigned and aggregates still update, so metrics stay exact even
// when the timeline is truncated.
func (c *Collector) Emit(r Record) uint64 {
	c.mu.Lock()
	c.nextID++
	r.ID = c.nextID
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, r)
	} else {
		c.dropped++
	}
	if r.Kind == KindKernel {
		c.aggregate(r)
	}
	// Trampoline/save-set metrics ride on the codegen record for freshly
	// generated code and on the cache_hit record for code materialized from
	// cached artifacts; the two partition a launch's totals.
	if r.Kind == KindJITPhase && (r.Name == "codegen" || r.Name == "cache_hit") {
		c.aggregateCodegen(r)
	}
	c.mu.Unlock()
	return r.ID
}

// Records returns a snapshot of the buffered records in emission order.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.ring))
	copy(out, c.ring)
	return out
}

// Drain returns the buffered records and empties the ring (the dropped
// counter and aggregates are preserved).
func (c *Collector) Drain() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.ring))
	copy(out, c.ring)
	c.ring = c.ring[:0]
	return out
}

// Dropped returns how many records the full ring refused.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// MergeShard drains a worker's shard into the collector, re-parenting
// records that have no parent yet to the given ID (0 leaves them alone).
// Callers merge shards in ascending SM order after all workers have joined,
// so IDs are deterministic; worker-side drops carry over into the
// collector's count.
func (c *Collector) MergeShard(s *Shard, parent uint64) {
	for i := range s.recs {
		r := s.recs[i]
		if parent != 0 && r.Parent == 0 {
			r.Parent = parent
		}
		c.Emit(r)
	}
	if s.dropped > 0 {
		c.mu.Lock()
		c.dropped += s.dropped
		c.mu.Unlock()
	}
	s.recs = s.recs[:0]
	s.dropped = 0
}

// Shard is a bounded single-writer record buffer one scheduler worker owns.
// Workers append without synchronization; the launching goroutine merges
// shards into the collector in ascending SM order after the workers join.
type Shard struct {
	recs    []Record
	cap     int
	dropped uint64
}

// NewShard returns a shard bounded to capacity records (zero or negative
// selects DefaultShardCapacity).
func NewShard(capacity int) *Shard {
	if capacity <= 0 {
		capacity = DefaultShardCapacity
	}
	return &Shard{cap: capacity}
}

// DefaultShardCapacity bounds one worker's per-launch record buffer.
const DefaultShardCapacity = 1 << 10

// Append records one activity into the shard, dropping (and counting) when
// the shard is full.
func (s *Shard) Append(r Record) {
	if len(s.recs) >= s.cap {
		s.dropped++
		return
	}
	s.recs = append(s.recs, r)
}

// Len returns the number of buffered records.
func (s *Shard) Len() int { return len(s.recs) }

// Records exposes the buffered records (shared backing array; callers must
// not retain it past the shard's next Append).
func (s *Shard) Records() []Record { return s.recs }
