package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nvbitgo/internal/profile"
)

// Dim3 is a CUDA-style three-dimensional extent.
type Dim3 struct{ X, Y, Z int }

// Count returns the total number of elements in the extent, or 0 when any
// dimension is missing.
func (d Dim3) Count() int {
	if d.X <= 0 || d.Y <= 0 || d.Z <= 0 {
		return 0
	}
	return d.X * d.Y * d.Z
}

// D1 is shorthand for a one-dimensional extent.
func D1(n int) Dim3 { return Dim3{n, 1, 1} }

// LaunchSpec describes one kernel launch.
type LaunchSpec struct {
	Entry       CodeAddr // entry PC (word index in code space)
	Name        string   // kernel name, for fault provenance (may be empty)
	Grid, Block Dim3
	Params      []byte // raw parameter block, mapped to constant bank 1
	SharedBytes int    // dynamic shared memory per CTA
	// Prof, when non-nil, receives this launch's activity records (one
	// kernel record plus per-SM span children). The driver passes the
	// launching scope's collector; nil is the allocation-free fast path.
	Prof *profile.Collector
	// FlushHook, when non-nil, runs at every sweep and CTA boundary of this
	// launch (see FlushHook). The driver passes the hook the launching
	// scope's enter callback chose for this launch, so one tenant's
	// mid-kernel flushes never run inside another's kernels; nil keeps the
	// hot path call-free.
	FlushHook FlushHook
	// Instrumented says the launch runs instrumented code; its kernel
	// record carries it.
	Instrumented bool
}

// Launch executes a kernel to completion and returns the statistics of this
// launch only (they are also accumulated on the device). The CTA-to-SM
// mapping is fixed (cta % NumSMs); Config.Scheduler selects whether the SMs
// execute sequentially on one goroutine or concurrently with one worker per
// SM (see docs/scheduler.md for the determinism contract). With a collector
// in spec.Prof, the launch additionally emits one kernel activity
// record plus per-SM span children, merged in ascending SM order so record
// ordering is deterministic under both schedulers; without one, the launch
// path allocates nothing.
func (d *Device) Launch(spec LaunchSpec) (Stats, error) {
	if spec.Block.Count() <= 0 || spec.Block.Count() > 1024 {
		return Stats{}, fmt.Errorf("gpu: block of %d threads out of range (1..1024)", spec.Block.Count())
	}
	if spec.Grid.Count() <= 0 {
		return Stats{}, fmt.Errorf("gpu: empty grid")
	}
	if d.closed {
		return Stats{}, errClosed
	}
	if spec.SharedBytes > d.cfg.SharedMemPerCTA {
		return Stats{}, fmt.Errorf("gpu: %d bytes of shared memory exceed the per-CTA limit %d", spec.SharedBytes, d.cfg.SharedMemPerCTA)
	}

	prof := spec.Prof
	var profStart time.Duration
	if prof != nil {
		profStart = prof.Now()
	}
	nCTA := spec.Grid.Count()
	smCycles, smWarps := d.smCycles, d.smWarps
	for i := range smCycles {
		smCycles[i] = 0
		smWarps[i] = 0
	}

	var launch Stats
	// spans holds one KindSMSpan record per SM that runs a CTA, filled by
	// the backend in its SM's slot; nil when tracing is off.
	var spans []profile.Record
	if prof != nil {
		spans = make([]profile.Record, min(d.cfg.NumSMs, nCTA))
	}
	var err error
	if d.cfg.Scheduler == SchedulerParallelSM {
		err = d.launchParallelSM(spec, nCTA, &launch, smCycles, smWarps, spans)
	} else {
		err = d.launchSequential(spec, nCTA, &launch, smCycles, smWarps, spans)
	}
	if err != nil {
		if prof != nil {
			emitKernelRecord(prof, spec, profStart, nCTA, Stats{}, smWarps, nil, err)
		}
		return Stats{}, err
	}

	// Timing model: each SM overlaps its resident warps; with W warps it
	// hides latency with factor min(W, hideLimit). Kernel time is the
	// busiest SM.
	var kernelCycles uint64
	for sm := range smCycles {
		if smWarps[sm] == 0 {
			continue
		}
		hide := smWarps[sm]
		if hide > hideLimit {
			hide = hideLimit
		}
		c := smCycles[sm] / hide
		if c > kernelCycles {
			kernelCycles = c
		}
	}
	launch.Cycles += kernelCycles
	launch.Launches++
	d.stats.Add(launch)
	if prof != nil {
		emitKernelRecord(prof, spec, profStart, nCTA, launch, smWarps, spans, nil)
	}
	return launch, nil
}

// emitKernelRecord emits the KindKernel activity record for one launch,
// followed by its per-SM KindSMSpan children (spans) in ascending SM order.
// Each SM's span is written into its own slot by the worker that ran the SM
// (parallel) or synthesized from the per-SM accumulators (sequential);
// either way the emission order is fixed, so record IDs and ordering are
// deterministic. A failed launch has no spans, so only its kernel record
// (with its fault outcome) is emitted — partial SM spans would depend on
// cross-SM cancellation timing.
func emitKernelRecord(prof *profile.Collector, spec LaunchSpec, start time.Duration, nCTA int, launch Stats, smWarps []uint64, spans []profile.Record, lerr error) {
	var warpsRetired uint64
	for _, w := range smWarps {
		warpsRetired += w
	}
	rec := profile.Record{
		Kind:         profile.KindKernel,
		Name:         spec.Name,
		Kernel:       spec.Name,
		Start:        start,
		Dur:          prof.Now() - start,
		SM:           -1,
		Grid:         [3]int{spec.Grid.X, spec.Grid.Y, spec.Grid.Z},
		Block:        [3]int{spec.Block.X, spec.Block.Y, spec.Block.Z},
		CTAs:         nCTA,
		WarpsRetired: warpsRetired,
		WarpInstrs:   launch.WarpInstrs,
		ThreadInstrs: launch.ThreadInstrs,
		Cycles:       launch.Cycles,
		Instrumented: spec.Instrumented,
	}
	if lerr != nil {
		if f, ok := AsFault(lerr); ok {
			rec.Fault = f.Kind.String()
		} else {
			rec.Fault = "error"
		}
	}
	kid := prof.Emit(rec)
	for _, r := range spans {
		r.Parent = kid
		prof.Emit(r)
	}
}

// ctasOnSM returns how many of nCTA blocks the fixed cta%NumSMs mapping
// places on the given SM.
func (d *Device) ctasOnSM(sm, nCTA int) int {
	return (nCTA - sm + d.cfg.NumSMs - 1) / d.cfg.NumSMs
}

// launchSequential is the reference backend: one goroutine walks the CTAs in
// linear order, so every counter — including shared-L2 hit/miss attribution —
// is fully deterministic. With tracing on it fills the launch's per-SM spans.
func (d *Device) launchSequential(spec LaunchSpec, nCTA int, launch *Stats, smCycles, smWarps []uint64, spans []profile.Record) error {
	ctx := d.newExecContext(spec, d.l2)
	defer d.releaseContext(ctx)
	warpsPerCTA := uint64(len(ctx.warps))
	for cta := 0; cta < nCTA; cta++ {
		sm := cta % d.cfg.NumSMs
		cycles, err := ctx.runCTA(cta, sm)
		if err != nil {
			return err
		}
		smCycles[sm] += cycles
		smWarps[sm] += warpsPerCTA
	}
	launch.Add(ctx.stats)
	if spans != nil {
		// Synthesize the per-SM spans from the per-SM accumulators (the
		// single walking context has no per-worker wall clocks; span
		// content matches the parallel backend's, timing fields cover the
		// whole launch).
		t := spec.Prof.Now()
		for sm := range spans {
			spans[sm] = profile.Record{
				Kind: profile.KindSMSpan, Name: spec.Name, Kernel: spec.Name,
				SM: sm, Start: t, Dur: 0,
				CTAs:         d.ctasOnSM(sm, nCTA),
				WarpsRetired: smWarps[sm],
				Cycles:       smCycles[sm],
			}
		}
	}
	return nil
}

// launchParallelSM runs one worker goroutine per SM. Worker i owns SM i
// exclusively: it executes the CTAs with cta % NumSMs == i in ascending
// order (the same per-SM schedule the sequential backend produces), with a
// private execContext, warp pool, shared-memory buffer, stats shard, the
// SM's own L1, and a private 1/NumSMs-sized L2 shard. Shards are merged into
// launch in ascending SM order after all workers join, so aggregate counts
// are bit-identical run to run; only the L2 hit/miss split (and the cycle
// counts derived from it) can differ from the sequential backend. See
// docs/scheduler.md. With tracing on each worker writes its SM's span into
// its own slot of spans.
func (d *Device) launchParallelSM(spec LaunchSpec, nCTA int, launch *Stats, smCycles, smWarps []uint64, spans []profile.Record) error {
	// The workers capture the two fields they read, not spec: a closure
	// copies a captured struct of up to 128 bytes into each worker's closure.
	prof, name := spec.Prof, spec.Name
	nWorkers := d.cfg.NumSMs
	if nWorkers > nCTA {
		nWorkers = nCTA // trailing SMs would have no CTAs
	}
	l2Lines := d.cfg.L2Lines / d.cfg.NumSMs
	ctxs := make([]*execContext, nWorkers)
	errs := make([]error, nWorkers)
	// cancel lets a faulting worker stop its peers promptly instead of
	// letting them grind through the rest of the grid. A worker never heeds
	// it during its first CTA (so faults raised there are always recorded,
	// keeping the lowest-SM winner deterministic for uniform faults), and
	// every CTA is watchdog-bounded, so cancellation is an optimization, not
	// the termination guarantee. See docs/faults.md.
	var cancel atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		// Contexts are created (and their warps drawn from the device
		// pool) on the launching goroutine; workers touch only their own.
		ctx := d.newExecContext(spec, newCache(l2Lines, l2Ways))
		ctx.locked = true
		ctx.cancel = &cancel
		ctxs[i] = ctx
		warpsPerCTA := uint64(len(ctx.warps))
		wg.Add(1)
		go func(sm int, ctx *execContext) {
			defer wg.Done()
			var t0 time.Duration
			if prof != nil {
				t0 = prof.Now()
			}
			ctas := 0
			for cta := sm; cta < nCTA; cta += d.cfg.NumSMs {
				ctx.heedCancel = cta != sm // never abandon the first CTA
				if ctx.heedCancel && cancel.Load() {
					errs[sm] = errLaunchCanceled
					return
				}
				cycles, err := ctx.runCTA(cta, sm)
				if err != nil {
					if err != errLaunchCanceled {
						cancel.Store(true)
					}
					errs[sm] = err
					return
				}
				smCycles[sm] += cycles
				smWarps[sm] += warpsPerCTA
				ctas++
			}
			if prof != nil {
				// Only this worker writes slot sm; the launching
				// goroutine reads the slots after the join.
				spans[sm] = profile.Record{
					Kind: profile.KindSMSpan, Name: name, Kernel: name,
					SM: sm, Start: t0, Dur: prof.Now() - t0,
					CTAs:         ctas,
					WarpsRetired: smWarps[sm],
					Cycles:       smCycles[sm],
				}
			}
		}(i, ctx)
	}
	wg.Wait()
	defer func() {
		for _, ctx := range ctxs {
			ctx.l2.recycle()
			d.releaseContext(ctx)
		}
	}()
	for _, err := range errs {
		if err != nil && err != errLaunchCanceled {
			return err // lowest-SM fault, deterministically
		}
	}
	// Merge the per-SM shards in ascending SM order: fixed order makes the
	// aggregate bit-identical run to run.
	for _, ctx := range ctxs {
		launch.Add(ctx.stats)
	}
	return nil
}

// errLaunchCanceled marks a worker stopped by a peer's fault; it is never
// surfaced to the caller (the peer's real fault is).
var errLaunchCanceled = fmt.Errorf("gpu: launch canceled by a fault on another SM")

// hideLimit caps the latency-hiding benefit of warp multithreading per SM.
const hideLimit = 8

// DefaultWatchdogInterval is the per-CTA warp-instruction budget used when
// Config.WatchdogInterval is zero — large enough that no real workload in
// this repo comes within orders of magnitude of it, small enough that an
// infinite loop traps in seconds rather than hanging the host forever.
const DefaultWatchdogInterval = int64(1) << 28

// watchdogBudget resolves Config.WatchdogInterval: zero selects the default,
// a negative value disables the watchdog entirely.
func (d *Device) watchdogBudget() int64 {
	switch {
	case d.cfg.WatchdogInterval < 0:
		return math.MaxInt64
	case d.cfg.WatchdogInterval == 0:
		return DefaultWatchdogInterval
	}
	return d.cfg.WatchdogInterval
}

// execContext holds the execution state one scheduler worker reuses across
// the CTAs it runs: under the sequential backend a single context walks
// every CTA; under the parallel backend each SM worker owns one.
type execContext struct {
	dev    *Device
	spec   LaunchSpec
	bank0  [32]byte // constant bank 0 backing store (launch configuration)
	banks  [8][]byte
	shared []byte
	warps  []*warp

	stats  Stats    // this worker's statistics shard
	l1s    []*cache // per-SM L1 models (indexed by c.sm)
	l2     *cache   // shared L2 (sequential) or a private shard (parallel)
	locked bool     // route global atomics through the device stripe locks

	// Watchdog: every CTA gets wdBudget warp instructions; wdLeft counts
	// down in step. A per-CTA (not per-launch) budget keeps watchdog faults
	// scheduler-invariant: the budget does not depend on how CTAs are
	// distributed over workers.
	wdBudget int64
	wdLeft   int64

	cancel     *atomic.Bool // parallel scheduler: peer-fault cancellation flag
	heedCancel bool         // check cancel between warp sweeps of this CTA

	// row: where step computes a row operation under a partial mask.
	row [2][WarpSize]uint32
	// ch is code chunk chIdx, the last fetched from.
	ch    *codeChunk
	chIdx uint32

	cta     Dim3 // current CTA coordinates
	ctaID   int
	sm      int
	curWarp int // warp currently stepping (fault provenance)
}

// newExecContext builds (or recycles) one worker's execution state, drawing
// warps from the device's free list (warp slabs dominate per-launch
// allocation: 32 KiB of registers each) and the context itself from the
// context free list, so a launch with tracing off allocates nothing. A warp
// falls back to the process-wide pool of closed devices' warps
// (Device.Close) only when the free list is empty, and to allocation only
// when the pool is empty too. Must be called on the launching goroutine — the
// free lists are unsynchronized; releaseContext returns everything once the
// worker is done.
func (d *Device) newExecContext(spec LaunchSpec, l2 *cache) *execContext {
	var c *execContext
	if n := len(d.ctxFree); n > 0 {
		c = d.ctxFree[n-1]
		d.ctxFree = d.ctxFree[:n-1]
	} else {
		c = &execContext{}
	}
	c.dev = d
	c.spec = spec
	c.stats = Stats{}
	c.l1s = d.l1s
	c.l2 = l2
	c.locked = false
	c.cancel = nil
	c.heedCancel = false
	c.ch = nil
	c.wdBudget = d.watchdogBudget()

	// Constant bank 0: launch configuration (grid and block dimensions),
	// as the backend compiler expects (see internal/ptx lowering).
	c.bank0 = [32]byte{}
	binary.LittleEndian.PutUint32(c.bank0[0:], uint32(spec.Grid.X))
	binary.LittleEndian.PutUint32(c.bank0[4:], uint32(spec.Grid.Y))
	binary.LittleEndian.PutUint32(c.bank0[8:], uint32(spec.Grid.Z))
	binary.LittleEndian.PutUint32(c.bank0[12:], uint32(spec.Block.X))
	binary.LittleEndian.PutUint32(c.bank0[16:], uint32(spec.Block.Y))
	binary.LittleEndian.PutUint32(c.bank0[20:], uint32(spec.Block.Z))
	c.banks = [8][]byte{0: c.bank0[:], 1: spec.Params}

	if cap(c.shared) >= spec.SharedBytes {
		c.shared = c.shared[:spec.SharedBytes]
	} else {
		c.shared = make([]byte, spec.SharedBytes)
	}

	warpsPerCTA := (spec.Block.Count() + WarpSize - 1) / WarpSize
	if cap(c.warps) >= warpsPerCTA {
		c.warps = c.warps[:warpsPerCTA]
	} else {
		c.warps = make([]*warp, warpsPerCTA)
	}
	for i := range c.warps {
		if n := len(d.warpFree); n > 0 {
			c.warps[i] = d.warpFree[n-1]
			d.warpFree = d.warpFree[:n-1]
		} else if c.warps[i], _ = warpPool.Get().(*warp); c.warps[i] == nil {
			c.warps[i] = newWarp()
		}
	}
	return c
}

// releaseContext returns a context's warps to the device pool and the
// context itself to the context pool for the next launch. As on hardware,
// register and local-memory contents are undefined at CTA start, so recycled
// slabs are handed back as-is (warp.reset clears the architectural state
// that must be fresh).
func (d *Device) releaseContext(c *execContext) {
	d.warpFree = append(d.warpFree, c.warps...)
	c.warps = c.warps[:0]
	c.banks[1] = nil
	c.spec.Params = nil
	c.l2 = nil
	c.spec.FlushHook = nil
	d.ctxFree = append(d.ctxFree, c)
}

func (c *execContext) runCTA(ctaLinear, sm int) (uint64, error) {
	g := c.spec.Grid
	c.cta = Dim3{
		X: ctaLinear % g.X,
		Y: (ctaLinear / g.X) % max(g.Y, 1),
		Z: ctaLinear / (g.X * max(g.Y, 1)),
	}
	c.ctaID = ctaLinear
	c.sm = sm
	c.wdLeft = c.wdBudget
	threads := c.spec.Block.Count()
	for i := range c.shared {
		c.shared[i] = 0
	}
	for w, wp := range c.warps {
		lanes := threads - w*WarpSize
		if lanes > WarpSize {
			lanes = WarpSize
		}
		wp.reset(w, lanes, int32(c.spec.Entry))
	}

	// Round-robin warp scheduling with CTA barrier support.
	var cycles uint64
	for {
		// Each sweep is bounded (64-instruction bursts per warp), so this
		// check turns a peer's cancellation into prompt termination even
		// while warps loop forever.
		if c.heedCancel && c.cancel != nil && c.cancel.Load() {
			return 0, errLaunchCanceled
		}
		// Sweep boundary: no warp is mid-burst, so a bound channel can
		// swap a full record buffer to the host here — this is what turns
		// Block-policy device spins into forward progress.
		if c.spec.FlushHook != nil {
			c.spec.FlushHook(sm, FlushTick)
		}
		progress := false
		allDoneOrBarred := true
		anyBarred := false
		for _, wp := range c.warps {
			if wp.live == 0 {
				continue
			}
			if wp.barWait {
				anyBarred = true
				continue
			}
			allDoneOrBarred = false
			c.curWarp = wp.id
			// Run a burst of instructions for locality.
			for i := 0; i < 64 && wp.live != 0 && !wp.barWait; i++ {
				if err := c.step(wp); err != nil {
					return 0, err
				}
				progress = true
			}
		}
		if allDoneOrBarred {
			if !anyBarred {
				break // all warps exited
			}
			// Release the barrier: every live warp is waiting.
			for _, wp := range c.warps {
				wp.barWait = false
			}
			progress = true
		}
		if !progress {
			return 0, fmt.Errorf("scheduler made no progress (deadlock)")
		}
	}
	for _, wp := range c.warps {
		cycles += wp.cycles
		wp.cycles = 0
	}
	if c.spec.FlushHook != nil {
		c.spec.FlushHook(sm, FlushCTA)
	}
	return cycles, nil
}
