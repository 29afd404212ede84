// Package channel implements the device→host streaming record channel of
// this NVBit reproduction — the analog of the real framework's
// ChannelDev/ChannelHost utility pair that every data-heavy tool (mem_trace,
// cache simulators, the Section 6.3 tracing workflow) is built on.
//
// A Channel owns, per SM, one 64-byte control block and one record buffer in
// device memory. Injected tool functions push fixed-size records with a
// warp-aggregated atomic-reserve protocol (the fragments
// Config.ExpandToolPTX writes into the tool's device function), selecting
// their shard with %smid so no two scheduler workers ever touch the same
// shard. The simulator's flush hooks (gpu.LaunchSpec.FlushHooks, which the
// driver fills with the launching scope's channels) give the host control at
// every CTA-completion and warp-sweep boundary, on the goroutine that owns
// the SM while its warps are paused: when a shard's buffer is full and
// quiescent the hook copies the records off the device and hands the same
// buffer back empty — a mid-kernel flush, so long kernels no longer lose
// records at the old launch-exit-only drain. No warp of that SM runs between
// the copy and the reset, so one buffer per SM is all the protocol needs.
//
// Backpressure is selectable per channel: Drop (the pre-channel behaviour —
// a push into a full buffer is counted and discarded) or Block (the device
// side retries until a flush frees the buffer, guaranteeing zero loss).
//
// Ordering guarantee: within one shard, records are delivered in push order;
// Drain delivers the shards in ascending-SM order, the merge discipline of
// the sharded stats and profiler. Because the per-SM CTA schedule, warp
// scheduling, and flush points are identical under the sequential and
// parallel schedulers, the delivered record stream is byte-identical across
// both.
package channel

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
)

// Policy selects what the device-side push does when the shard's buffer is
// full.
type Policy int

const (
	// Drop discards the push and counts the loss in Stats.Dropped — the
	// behaviour of the pre-channel ring buffers, minus the losses that
	// mid-kernel flushes now salvage.
	Drop Policy = iota
	// Block retries the claim until a sweep-boundary flush frees the
	// buffer. No record is ever lost; the device spends (watchdog-counted)
	// spin instructions instead.
	Block
)

func (p Policy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Block:
		return "block"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a command-line or wire name to a Policy; the empty name
// is the default, Drop.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "drop":
		return Drop, nil
	case "block":
		return Block, nil
	}
	return Drop, fmt.Errorf("channel: unknown backpressure policy %q (want drop or block)", s)
}

// Per-SM control block layout (ctrlBytes each, at CtrlAddr() + sm*ctrlBytes):
//
//	[0]  u64 head   — claim cursor, atomically advanced by warp leaders by
//	                  the warp's record count ("need"). The fetched old
//	                  value is the claim's slot base; the claim succeeded
//	                  iff base+need ≤ cap. A failed claim leaves head
//	                  inflated, so within one buffer epoch every claim
//	                  after the first failure also fails — successful
//	                  claims therefore form a contiguous slot prefix.
//	[8]  u64 cap    — record slots per buffer
//	[16] u64 buf    — the shard's record buffer base address
//	[24] u64 failed — slots claimed by failed attempts, published by the
//	                  leader after detecting fullness. head-failed is the
//	                  successfully claimed count.
//	[32] u64 commit — fully written slots, published by the leader after
//	                  all record stores (the commit fragment).
//
// The quiescence rule that makes mid-kernel buffer resets safe: the host
// ships only when commit == head-failed. The head atomic itself publishes
// a claim, so a warp interrupted anywhere mid-push (between claim and
// failed-publish, or between claim and commit) makes head-failed strictly
// exceed commit — the hook then skips and retries at a later boundary,
// never observing a claimed-but-unwritten slot as shippable.
const (
	ctrlBytes = 64
	offHead   = 0
	offCap    = 8
	offBuf    = 16
	offFailed = 24
	offCommit = 32
)

// MinBufRecords is the smallest per-SM buffer capacity: a full warp's
// per-lane claim (32 records) must always be able to succeed, or a
// Block-policy push could spin forever against a buffer that can never fit
// it.
const MinBufRecords = 32

// Config describes one channel: the host half Open sets up and the device
// half ExpandToolPTX writes. NVBit.OpenChannel does both.
type Config struct {
	// Name labels the channel in activity records and errors.
	Name string
	// RecordBytes is the fixed record size; must be a positive multiple
	// of 8 (records hold 64-bit words and are stored 8-aligned).
	RecordBytes int
	// TotalRecords sizes the channel the way the old ring buffers were
	// sized — an aggregate record capacity, divided evenly across the
	// SM shards and clamped up to MinBufRecords per shard.
	TotalRecords int
	// Policy selects the full-buffer backpressure behaviour, on the host
	// (are failed claims losses?) and in the device fragment (count and
	// skip, or wait and retry).
	Policy Policy
	// OnBatch, if set, receives each shipped buffer's raw bytes (a whole
	// number of records) in delivered order during Drain. The slice is
	// owned by the callee.
	OnBatch func(data []byte)
	// Profiler, when non-nil, receives the channel's flush/drain activity
	// records; nil turns them off. NVBit.OpenChannel fills this in with the
	// attachment's collector.
	Profiler *profile.Collector

	// ToolPTX is the source of the tool's pushing device function, with a
	// line "@RESERVE@" where the record slot is claimed and a line
	// "@COMMIT@" after the record stores (see ExpandToolPTX).
	ToolPTX string
	// PushPred is the predicate register (e.g. "%p1") selecting the lanes
	// that push one record each. Under SharedSlot it selects the single
	// lane (per warp) that claims the shared record.
	PushPred string
	// SharedSlot selects one-record-per-warp mode: every lane receives
	// the address of the record PushPred's lane claimed, and the lanes
	// cooperate to fill it.
	SharedSlot bool
}

// Stats is a consistent snapshot of a channel's counters. All counters are
// maintained atomically (the hook side runs on SM worker goroutines); a
// snapshot taken after Drain returns reflects everything that launch pushed.
type Stats struct {
	Delivered    uint64 // records handed to OnBatch
	Dropped      uint64 // records lost to Drop-policy overflow
	Flushes      uint64 // buffers shipped (all flush points)
	TickFlushes  uint64 // … at warp-sweep boundaries (mid-kernel)
	CTAFlushes   uint64 // … at CTA completion (mid-kernel)
	DrainFlushes uint64 // … at launch-exit Drain
	BytesShipped uint64 // payload bytes copied off the device
}

// Channel is one open device→host record stream. The flush side runs on the
// scheduler's SM goroutines; Open, Drain and Close must be called from the
// host (launching) goroutine, between launches.
type Channel struct {
	cfg   Config
	dev   *gpu.Device
	slots uint64 // records per buffer (per SM)
	ctrl  uint64 // one control block per SM
	bufs  uint64 // one record buffer per SM
	sms   []smState

	delivered    atomic.Uint64
	dropped      atomic.Uint64
	flushes      atomic.Uint64
	tickFlushes  atomic.Uint64
	ctaFlushes   atomic.Uint64
	drainFlushes atomic.Uint64
	bytesShipped atomic.Uint64
}

// smState is the host-side state of one SM shard, touched only by the
// goroutine that owns the SM (plus the launching goroutine at Drain, after
// workers have joined) — the single-writer discipline of profile.Shard.
type smState struct {
	ctrl    uint64 // this shard's control block
	buf     uint64 // this shard's record buffer
	scratch [ctrlBytes]byte
	pending [][]byte       // shipped buffers in flush order, delivered at Drain
	shard   *profile.Shard // KindChannelFlush spans, merged at Drain
}

// Open allocates a channel's device memory on dev: NumSMs control blocks
// and NumSMs record buffers. Mid-kernel flushes happen in the launches that
// carry OnFlushPoint among their flush hooks.
func Open(dev *gpu.Device, cfg Config) (*Channel, error) {
	if cfg.RecordBytes <= 0 || cfg.RecordBytes%8 != 0 {
		return nil, fmt.Errorf("channel: record size %d not a positive multiple of 8", cfg.RecordBytes)
	}
	if cfg.Name == "" {
		cfg.Name = "channel"
	}
	nSMs := dev.Config().NumSMs
	slots := max(cfg.TotalRecords/nSMs, MinBufRecords)
	c := &Channel{cfg: cfg, dev: dev, slots: uint64(slots), sms: make([]smState, nSMs)}
	var err error
	if c.ctrl, err = dev.Malloc(uint64(nSMs) * ctrlBytes); err != nil {
		return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
	}
	bufBytes := uint64(slots * cfg.RecordBytes)
	if c.bufs, err = dev.Malloc(uint64(nSMs) * bufBytes); err != nil {
		_ = dev.Free(c.ctrl)
		return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
	}
	for sm := range c.sms {
		s := &c.sms[sm]
		s.ctrl = c.ctrl + uint64(sm)*ctrlBytes
		s.buf = c.bufs + uint64(sm)*bufBytes
		s.shard = profile.NewShard(0)
		if err := c.reset(s); err != nil {
			c.Close()
			return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
		}
	}
	return c, nil
}

// reset starts a new buffer epoch on shard s: an empty buffer, no claims.
func (c *Channel) reset(s *smState) error {
	clear(s.scratch[:])
	binary.LittleEndian.PutUint64(s.scratch[offCap:], c.slots)
	binary.LittleEndian.PutUint64(s.scratch[offBuf:], s.buf)
	return c.dev.Write(s.ctrl, s.scratch[:])
}

// CtrlAddr returns the device address of the shard control-block array —
// the value tools pass (ArgConst64) as their device function's ctrl
// parameter.
func (c *Channel) CtrlAddr() uint64 { return c.ctrl }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats {
	return Stats{
		Delivered:    c.delivered.Load(),
		Dropped:      c.dropped.Load(),
		Flushes:      c.flushes.Load(),
		TickFlushes:  c.tickFlushes.Load(),
		CTAFlushes:   c.ctaFlushes.Load(),
		DrainFlushes: c.drainFlushes.Load(),
		BytesShipped: c.bytesShipped.Load(),
	}
}

// OnFlushPoint is the channel's gpu.FlushHook: at each sweep/CTA boundary of
// SM sm it ships the shard's buffer if (and only if) the buffer is full and
// every claimed record has been committed. The quiescence check (commit ==
// claimed) makes the reset safe even when another warp was interrupted
// mid-push: that warp's claim keeps the buffer pinned until its stores land.
// A closed channel's hook does nothing.
func (c *Channel) OnFlushPoint(sm int, point gpu.FlushPoint) {
	if c.ctrl != 0 {
		c.flushShard(sm, point, false)
	}
}

// flushShard copies shard sm's committed records into its pending list and
// resets the shard to an empty buffer. It runs on the goroutine that owns
// the SM (or on the launching goroutine at Drain), so the copy completes
// before any warp of the SM pushes again.
func (c *Channel) flushShard(sm int, point gpu.FlushPoint, drain bool) {
	s := &c.sms[sm]
	if err := c.dev.Read(s.ctrl, s.scratch[:]); err != nil {
		return
	}
	head := binary.LittleEndian.Uint64(s.scratch[offHead:])
	failed := binary.LittleEndian.Uint64(s.scratch[offFailed:])
	commit := binary.LittleEndian.Uint64(s.scratch[offCommit:])
	if failed > head {
		return // a failed-claim publish outran our view; not quiescent
	}
	claimed := head - failed // successfully claimed slots (exact when quiescent)
	if claimed > c.slots {
		// Successes cannot exceed cap: a failed claim has not published
		// yet, and a reset now would let that publish land in the next
		// epoch, where it would wedge the shard for good.
		return
	}
	if drain {
		if head == 0 && failed == 0 {
			return // shard untouched since its last flush
		}
	} else {
		// Mid-kernel: flush only a full, quiescent buffer. "Full" is
		// either exactly at capacity or wedged (a claim has failed, so
		// every further claim fails until we reset); "quiescent" is
		// commit == claimed, which any mid-push warp falsifies.
		if claimed == 0 || commit != claimed || (claimed != c.slots && failed == 0) {
			return
		}
	}

	prof := c.cfg.Profiler
	var t0 time.Duration
	if prof != nil {
		t0 = prof.Now()
	}
	var data []byte
	if claimed > 0 {
		data = make([]byte, claimed*uint64(c.cfg.RecordBytes))
		if err := c.dev.Read(s.buf, data); err != nil {
			return
		}
	}
	if err := c.reset(s); err != nil {
		return
	}

	// Under Drop, failed claims are lost records; under Block they were
	// retried and will land in a later epoch — reset without counting.
	if failed > 0 && c.cfg.Policy == Drop {
		c.dropped.Add(failed)
	}
	if data != nil {
		c.flushes.Add(1)
		c.bytesShipped.Add(uint64(len(data)))
		switch {
		case drain:
			c.drainFlushes.Add(1)
		case point == gpu.FlushCTA:
			c.ctaFlushes.Add(1)
		default:
			c.tickFlushes.Add(1)
		}
		s.pending = append(s.pending, data)
		if prof != nil {
			s.shard.Append(profile.Record{
				Kind:  profile.KindChannelFlush,
				Name:  c.cfg.Name,
				SM:    sm,
				Start: t0,
				Dur:   prof.Now() - t0,
				Bytes: uint64(len(data)),
				Count: claimed,
			})
		}
	}
}

// Drain ships every shard's remaining records (and residual drop counts) and
// delivers everything shipped since the last Drain to OnBatch: shard by
// shard in ascending-SM order, flush order within a shard, so the record
// stream a consumer sees is scheduler-independent. Tools call it from their
// launch-exit callback; it must run on the launching goroutine with no
// launch in flight. With a profiler attached it emits one KindChannelDrain
// record whose children are the drain's (and the preceding launch's
// mid-kernel) flush spans, merged in ascending-SM order.
func (c *Channel) Drain() {
	before := c.delivered.Load()
	bytesBefore := c.bytesShipped.Load()
	prof := c.cfg.Profiler
	var t0 time.Duration
	if prof != nil {
		t0 = prof.Now()
	}
	for sm := range c.sms {
		c.flushShard(sm, gpu.FlushCTA, true)
		s := &c.sms[sm]
		for _, data := range s.pending {
			if c.cfg.OnBatch != nil {
				c.cfg.OnBatch(data)
			}
			c.delivered.Add(uint64(len(data) / c.cfg.RecordBytes))
		}
		clear(s.pending)
		s.pending = s.pending[:0]
	}
	if prof != nil {
		id := prof.Emit(profile.Record{
			Kind:  profile.KindChannelDrain,
			Name:  c.cfg.Name,
			SM:    -1,
			Start: t0,
			Dur:   prof.Now() - t0,
			Bytes: c.bytesShipped.Load() - bytesBefore,
			Count: c.delivered.Load() - before,
		})
		for sm := range c.sms {
			prof.MergeShard(c.sms[sm].shard, id)
		}
	}
}

// Close frees the channel's device memory; Stats keeps answering. Buffers
// shipped but not yet drained are discarded; call Drain first. Call between
// launches. The framework closes the channels an attachment opened with
// NVBit.OpenChannel when the attachment ends. Close is idempotent.
func (c *Channel) Close() {
	if c.ctrl != 0 {
		_ = c.dev.Free(c.ctrl)
		_ = c.dev.Free(c.bufs)
		c.ctrl, c.bufs = 0, 0
	}
	for sm := range c.sms {
		c.sms[sm].pending = nil
	}
}
