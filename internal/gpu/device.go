// Package gpu implements the SIMT GPU simulator that stands in for real
// NVIDIA hardware in this NVBit reproduction.
//
// The simulator executes binary-encoded synthetic SASS (package sass) with
// warp-level single-instruction-multiple-thread semantics: 32-thread warps,
// per-thread program counters with minimum-PC reconvergence scheduling,
// guard predication, divergence, CTA barriers, shared/local/constant/global
// memories, a two-level cache-line model and a coarse timing model. Crucially
// for the paper's experiments, it executes whatever bytes sit in device code
// space — including the trampolines and relocated instructions produced by
// the NVBit code generator — so instrumentation overhead is an emergent,
// measured quantity.
package gpu

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"nvbitgo/internal/enum"
	"nvbitgo/internal/sass"
)

// WarpSize is the number of threads per warp, as on all NVIDIA GPUs.
const WarpSize = 32

// SchedulerKind selects how Launch maps CTAs onto SMs (see docs/scheduler.md).
type SchedulerKind int

const (
	// SchedulerSequential runs every CTA on a single goroutine in linear
	// CTA order — the fully deterministic reference backend, and the
	// default (the paper-figure experiments assert its exact baselines).
	SchedulerSequential SchedulerKind = iota
	// SchedulerParallelSM runs one worker goroutine per SM; worker i owns
	// SM i and executes the CTAs with cta % NumSMs == i in ascending
	// order, preserving the sequential backend's per-SM schedule exactly.
	SchedulerParallelSM
)

var schedulerNames = []string{"sequential", "parallel"}

func (k SchedulerKind) String() string { return enum.Name(schedulerNames, "SchedulerKind", k) }

// ParseScheduler maps a command-line name ("sequential", "parallel") to a
// SchedulerKind.
func ParseScheduler(s string) (SchedulerKind, error) {
	return enum.Parse[SchedulerKind](schedulerNames, "scheduler", s)
}

// Config describes a simulated device.
type Config struct {
	Family          sass.Family
	NumSMs          int           // streaming multiprocessors
	GlobalMemBytes  uint64        // device heap size
	CodeBytes       int           // code-space size (≤ 8 MiB on 64-bit families)
	SharedMemPerCTA int           // shared memory available per thread block
	LocalMemPerThr  int           // local memory per thread
	L1LineBytes     int           // cache line size (both levels)
	L1Lines         int           // L1 lines per SM
	L2Lines         int           // shared L2 lines
	EnableWFFT      bool          // execute WFFT32 natively ("future hardware" mode)
	Scheduler       SchedulerKind // CTA-to-SM execution backend (default sequential)
	// WatchdogInterval is the launch watchdog's per-CTA warp-instruction
	// budget: a CTA exceeding it traps with FaultWatchdogTimeout, so an
	// infinite-loop kernel fails deterministically instead of hanging the
	// host. Zero selects DefaultWatchdogInterval; negative disables it.
	WatchdogInterval int64
}

// DefaultConfig returns a modest device resembling a scaled-down TITAN V-
// class part (the paper's evaluation machine) of the given family.
func DefaultConfig(f sass.Family) Config {
	return Config{
		Family:          f,
		NumSMs:          8,
		GlobalMemBytes:  64 << 20,
		CodeBytes:       4 << 20,
		SharedMemPerCTA: 48 << 10,
		LocalMemPerThr:  4 << 10,
		L1LineBytes:     128,
		L1Lines:         256,  // 32 KiB L1 per SM
		L2Lines:         8192, // 1 MiB L2
	}
}

// Device is one simulated GPU.
type Device struct {
	cfg   Config
	codec *sass.Codec

	// pages backs global memory lazily, one region per entry: a region and
	// a page in it exist once something has been stored to the page, which
	// reads as zero until then, so a device costs what its workload touches
	// rather than GlobalMemBytes. Both levels are published with a
	// compare-and-swap, so concurrent first stores agree on one.
	pages []atomic.Pointer[memRegion]
	alloc *allocator

	// chunks backs code space (PCs are word indexes into it) the same way;
	// a chunk holds the decode pages of what ran in it.
	chunks    []atomic.Pointer[codeChunk]
	codeWords int // CodeBytes in instruction words
	codeTop   int // bump pointer (bytes)
	decMu     sync.Mutex

	l2        *cache
	l1s       []*cache
	lineShift uint // log2(L1LineBytes)

	stats Stats

	// warpFree recycles warp slabs (32 KiB of registers each) across
	// launches. Touched only on the launching goroutine (newExecContext /
	// releaseContext), never by SM workers.
	warpFree []*warp
	// ctxFree recycles execution contexts (shared-memory buffers, warp
	// slices, constant-bank tables) the same way, so the tracing-off
	// launch path allocates nothing. Same single-goroutine discipline.
	ctxFree []*execContext
	// smCycles/smWarps are the per-launch per-SM accumulators, reused
	// across launches (workers write disjoint indexes).
	smCycles, smWarps []uint64

	// allocMu guards the global-memory allocator. Concurrent sessions open
	// channels and allocate tool state between launches; none of these
	// paths are on the per-instruction hot path.
	allocMu sync.Mutex

	// closed is set by Close: the execution state is gone and Launch fails.
	closed bool

	// atomLocks stripes the simulated ATOM/RED read-modify-write path by
	// global word address so concurrent CTA workers stay race-free.
	atomLocks [atomStripes]sync.Mutex
}

// FlushPoint identifies the scheduler boundary at which a flush hook runs.
type FlushPoint int

const (
	// FlushTick is a warp-sweep boundary of a running CTA: the point at
	// which every resident warp has had a bounded burst of instructions,
	// so no warp can be mid-way through a multi-instruction record push.
	// This is the watchdog-tick granularity — sweeps are what bound a
	// CTA's progress against its watchdog budget.
	FlushTick FlushPoint = iota
	// FlushCTA is a CTA retiring on the SM: all its warps have exited.
	FlushCTA
)

// FlushHook observes SM execution boundaries. The scheduler invokes the
// launch's hook (LaunchSpec.FlushHook) with the SM index at each FlushTick
// and FlushCTA boundary, on the goroutine that owns that SM (the single
// walking goroutine under the sequential backend, SM worker i under the
// parallel backend) — so a hook that touches only per-SM state needs no
// synchronization. At a FlushCTA boundary of the sequential backend no warp
// is resident, so a hook may write code there (WriteCode) and the launch's
// next CTA runs what it wrote; under the parallel backend other SMs keep
// executing, and a hook must not. Hooks run on the launch hot path: they
// must be cheap and must not allocate when they have nothing to do.
type FlushHook func(sm int, point FlushPoint)

// atomStripes is the number of address-hashed locks serializing simulated
// global atomics under the parallel scheduler (power of two for masking).
const atomStripes = 64

// New creates a device. The code-space limit is clamped to what the family's
// absolute-jump immediate can address.
func New(cfg Config) (*Device, error) {
	if cfg.NumSMs <= 0 {
		return nil, fmt.Errorf("gpu: config needs at least one SM")
	}
	ib := cfg.Family.InstBytes()
	maxCode := (sass.Imm20UMax + 1) * ib
	if cfg.Family == sass.Volta {
		maxCode = 1 << 30
	}
	if cfg.CodeBytes <= 0 || cfg.CodeBytes > maxCode {
		return nil, fmt.Errorf("gpu: code space %d bytes out of range (max %d for %v)", cfg.CodeBytes, maxCode, cfg.Family)
	}
	if cfg.L1LineBytes == 0 || cfg.L1LineBytes&(cfg.L1LineBytes-1) != 0 {
		return nil, fmt.Errorf("gpu: cache line size %d not a power of two", cfg.L1LineBytes)
	}
	d := &Device{
		cfg:       cfg,
		codec:     sass.CodecFor(cfg.Family),
		pages:     make([]atomic.Pointer[memRegion], (cfg.GlobalMemBytes+regionSize-1)>>regionShift),
		alloc:     newAllocator(heapBase, cfg.GlobalMemBytes-heapBase),
		l2:        newCache(cfg.L2Lines, l2Ways),
		lineShift: uint(bits.TrailingZeros(uint(cfg.L1LineBytes))),
		smCycles:  make([]uint64, cfg.NumSMs),
		smWarps:   make([]uint64, cfg.NumSMs),
		codeWords: cfg.CodeBytes / ib,
	}
	d.chunks = make([]atomic.Pointer[codeChunk], (d.codeWords+chunkWords-1)/chunkWords)
	for i := 0; i < cfg.NumSMs; i++ {
		d.l1s = append(d.l1s, newCache(cfg.L1Lines, l1Ways))
	}
	return d, nil
}

// Close hands the device's execution state — its free warps with their save
// slabs and its L1 and L2 tag arrays — to process-wide pools, from which
// devices created later draw when their own free lists are empty. Everything pooled is reset to what a new device
// allocates, so the first CTA on any device starts from the same zero state.
// After Close the device fails every launch; its memory, code space and
// Stats stay readable. Close must not run concurrently with a launch.
func (d *Device) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, w := range d.warpFree {
		w.clear()
		warpPool.Put(w)
	}
	for _, c := range d.l1s {
		c.recycle()
	}
	d.l2.recycle()
	d.warpFree, d.ctxFree, d.l1s, d.l2 = nil, nil, nil, nil
}

// errClosed is Launch's error on a closed device.
var errClosed = fmt.Errorf("gpu: device closed")

// heapBase keeps address 0 unmapped so nil-pointer dereferences trap.
const heapBase = 1 << 16

// Global memory is backed in pages of pageSize bytes, grouped in regions of
// regionSize. Accesses are aligned to their width, so none straddles a page.
const (
	pageShift   = 12
	pageSize    = 1 << pageShift
	pageMask    = pageSize - 1
	regionShift = 16
	regionSize  = 1 << regionShift
	regionPages = regionSize / pageSize
)

type memPage [pageSize]byte

// memRegion holds the pages of one region, each nil until stored to.
type memRegion [regionPages]atomic.Pointer[memPage]

// zeroPage stands in for every page nothing has been stored to. Read-only.
var zeroPage memPage

// peek returns the page holding addr for reading.
func (d *Device) peek(addr uint64) *memPage {
	if r := d.pages[addr>>regionShift].Load(); r != nil {
		if pg := r[addr>>pageShift%regionPages].Load(); pg != nil {
			return pg
		}
	}
	return &zeroPage
}

// touch returns the page holding addr for writing, creating it (and its
// region) on first use.
func (d *Device) touch(addr uint64) *memPage {
	rs := &d.pages[addr>>regionShift]
	r := rs.Load()
	if r == nil {
		if r = new(memRegion); !rs.CompareAndSwap(nil, r) {
			r = rs.Load()
		}
	}
	slot := &r[addr>>pageShift%regionPages]
	pg := slot.Load()
	if pg == nil {
		if pg = new(memPage); !slot.CompareAndSwap(nil, pg) {
			pg = slot.Load()
		}
	}
	return pg
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Family returns the device's architecture family.
func (d *Device) Family() sass.Family { return d.cfg.Family }

// Codec returns the device's instruction codec (what the HAL wraps).
func (d *Device) Codec() *sass.Codec { return d.codec }

// Stats returns a snapshot of accumulated execution statistics.
func (d *Device) Stats() Stats { return d.stats }

// SetScheduler switches the CTA-to-SM execution backend. The choice is read
// at each launch; launches are synchronous, so switching between launches is
// safe.
func (d *Device) SetScheduler(k SchedulerKind) { d.cfg.Scheduler = k }

// SetWatchdogInterval replaces the launch watchdog's per-CTA budget (see
// Config.WatchdogInterval: zero selects the default, negative disables).
func (d *Device) SetWatchdogInterval(v int64) { d.cfg.WatchdogInterval = v }

// --- Global memory ---------------------------------------------------------

// Malloc allocates device global memory and returns its 64-bit address.
// Safe for concurrent callers (sessions allocate tool state independently).
func (d *Device) Malloc(n uint64) (uint64, error) {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	return d.alloc.alloc(n)
}

// Free releases an allocation made by Malloc.
func (d *Device) Free(addr uint64) error {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	return d.alloc.free(addr)
}

// AllocSpan is one device-memory allocation: [Base, Base+Size).
type AllocSpan struct{ Base, Size uint64 }

// Contains reports whether the n-byte access at addr lies wholly inside the
// span.
func (s AllocSpan) Contains(addr uint64, n int) bool {
	return addr >= s.Base && addr+uint64(n) <= s.Base+s.Size && addr+uint64(n) >= addr
}

// Allocations returns the live allocation table, sorted by base address.
// This is the allocation-query API memory-checker tools validate effective
// addresses against; launches are synchronous, so the snapshot is stable
// between launches.
func (d *Device) Allocations() []AllocSpan {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	out := make([]AllocSpan, 0, len(d.alloc.sizes))
	for base, size := range d.alloc.sizes {
		out = append(out, AllocSpan{base, size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// FreedSpans returns recently freed allocations, most recent first (a
// bounded history of freedHistory entries). A span stops being authoritative
// once any part of it is handed out again, so a caller classifying an
// address checks Allocations first.
func (d *Device) FreedSpans() []AllocSpan {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	out := make([]AllocSpan, len(d.alloc.freed))
	for i, s := range d.alloc.freed {
		out[len(out)-1-i] = s
	}
	return out
}

// inHeap reports whether the n-byte access at addr lies wholly inside the
// device heap.
func (d *Device) inHeap(addr, n uint64) bool {
	return addr >= heapBase && addr+n <= d.cfg.GlobalMemBytes && addr+n >= addr
}

func (d *Device) checkRange(addr uint64, n int) error {
	if !d.inHeap(addr, uint64(n)) {
		return fmt.Errorf("gpu: global memory access [%#x,+%d) out of range", addr, n)
	}
	return nil
}

// Write copies host bytes into device global memory (cuMemcpyHtoD).
func (d *Device) Write(addr uint64, p []byte) error {
	if err := d.checkRange(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		n := copy(d.touch(addr)[addr&pageMask:], p)
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// Read copies device global memory to the host (cuMemcpyDtoH).
func (d *Device) Read(addr uint64, p []byte) error {
	if err := d.checkRange(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		n := copy(p, d.peek(addr)[addr&pageMask:])
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// --- Code space -------------------------------------------------------------

// CodeAddr is a word index into device code space. Word 0 is reserved (an
// all-zero kernel would otherwise be loaded at the JMP-to-zero target).
type CodeAddr int

// ErrOutOfCodeSpace is the sentinel AllocCode's error wraps when the
// device's code space (Config.CodeBytes) cannot hold the request.
var ErrOutOfCodeSpace = errors.New("gpu: out of code space")

// AllocCode reserves space for n instruction words and returns its base.
// Code space is never freed: like the paper's trampolines, loaded code stays
// GPU-resident until module unload, which this simulator does not model.
func (d *Device) AllocCode(nWords int) (CodeAddr, error) {
	ib := d.codec.InstBytes()
	if d.codeTop == 0 {
		d.codeTop = ib // reserve word 0
	}
	need := nWords * ib
	if d.codeTop+need > d.cfg.CodeBytes {
		return 0, fmt.Errorf("%w (%d of %d bytes used, %d requested)", ErrOutOfCodeSpace, d.codeTop, d.cfg.CodeBytes, need)
	}
	base := CodeAddr(d.codeTop / ib)
	d.codeTop += need
	return base, nil
}

// WriteCode copies raw instruction bytes into code space and invalidates the
// decoded entries of the covered words that were decoded — none, for code
// placed where nothing ran yet, which is every trampoline's first write. This
// is the operation whose cost the paper equates to a host-to-device
// cudaMemcpy of the code size.
func (d *Device) WriteCode(addr CodeAddr, raw []byte) error {
	ib := d.codec.InstBytes()
	if len(raw)%ib != 0 {
		return fmt.Errorf("gpu: code write of %d bytes not a multiple of the %d-byte instruction size", len(raw), ib)
	}
	off := int(addr) * ib
	if off < 0 || off+len(raw) > d.cfg.CodeBytes {
		return fmt.Errorf("gpu: code write at word %d (+%d bytes) out of range", addr, len(raw))
	}
	d.stats.CodeBytesWritten += uint64(len(raw))
	for w := int(addr); len(raw) > 0; {
		ch, i := d.chunk(w), w%chunkWords
		n := copy(ch.raw[i*ib:], raw)
		for k := i; k < i+n/ib; k++ {
			if dp := ch.dec[k/decodeWords].Load(); dp != nil && atomic.LoadUint32(&dp.valid[k%decodeWords]) != 0 {
				atomic.StoreUint32(&dp.valid[k%decodeWords], 0)
			}
		}
		raw, w = raw[n:], w+n/ib
	}
	return nil
}

// ReadCode copies nWords of raw code back to the host (how the NVBit core's
// instruction lifter retrieves the original bytes of a loaded function).
func (d *Device) ReadCode(addr CodeAddr, nWords int) ([]byte, error) {
	ib := d.codec.InstBytes()
	off, n := int(addr)*ib, nWords*ib
	if off < 0 || off+n > d.cfg.CodeBytes {
		return nil, fmt.Errorf("gpu: code read at word %d (+%d words) out of range", addr, nWords)
	}
	out := make([]byte, n)
	for w, p := int(addr), out; len(p) > 0; {
		k := min(len(p), (chunkWords-w%chunkWords)*ib)
		if ch := d.chunks[w/chunkWords].Load(); ch != nil {
			copy(p[:k], ch.raw[w%chunkWords*ib:])
		}
		p, w = p[k:], w+k/ib
	}
	return out, nil
}

// chunkWords is the number of instruction words backed together; they are
// decoded in pages of decodeWords.
const (
	chunkWords  = 1024
	decodeWords = 64
)

// codeChunk is the backing of chunkWords consecutive words of code space.
type codeChunk struct {
	raw []byte // the instruction bytes
	// dec holds the decode page of each decodeWords of raw, made by the
	// first decode in it (under decMu), so code that is written and never
	// run costs its bytes alone, and a short kernel one page.
	dec [chunkWords / decodeWords]atomic.Pointer[decodePage]
}

// decodePage holds the decoded form of decodeWords consecutive code words.
type decodePage struct {
	inst [decodeWords]sass.Inst
	// valid publishes decoded entries: 1 under atomic load/store once
	// inst[i] is filled.
	valid [decodeWords]uint32
}

// chunk returns the chunk holding code word w, creating it (all zero, as
// never-written code space reads) on first use.
func (d *Device) chunk(w int) *codeChunk {
	slot := &d.chunks[w/chunkWords]
	if ch := slot.Load(); ch != nil {
		return ch
	}
	ch := &codeChunk{raw: make([]byte, chunkWords*d.codec.InstBytes())}
	if slot.CompareAndSwap(nil, ch) {
		return ch
	}
	return slot.Load()
}

// fetch returns the instruction at word index pc as its decode page's own
// entry (read-only to callers). A hit takes three acquire loads and no lock.
// Code is written (WriteCode) between launches, or by a flush hook at a CTA
// boundary of a sequential launch, where no warp is resident; so an entry
// never changes while any worker can fetch it.
func (d *Device) fetch(pc int32) (*sass.Inst, error) {
	if w := int(pc); w > 0 && w < d.codeWords {
		if ch := d.chunks[w/chunkWords].Load(); ch != nil {
			if dp := ch.dec[w%chunkWords/decodeWords].Load(); dp != nil && atomic.LoadUint32(&dp.valid[w%decodeWords]) != 0 {
				return &dp.inst[w%decodeWords], nil
			}
		}
	}
	return d.decode(pc)
}

// fetch is Device.fetch behind a memo of the code chunk this worker last
// fetched from, so that a kernel and the trampolines placed after it keep
// hitting as control passes between their pages. The entry's valid flag is
// still read each time, so the memo never serves what WriteCode
// invalidated; a chunk is never replaced, nor is a decode page in it.
func (c *execContext) fetch(pc int32) (*sass.Inst, error) {
	u := uint32(pc)
	if ch := c.ch; ch != nil && u/chunkWords == c.chIdx {
		if dp := ch.dec[u%chunkWords/decodeWords].Load(); dp != nil && atomic.LoadUint32(&dp.valid[u%decodeWords]) != 0 {
			return &dp.inst[u%decodeWords], nil
		}
	}
	in, err := c.dev.fetch(pc)
	if err == nil {
		c.ch, c.chIdx = c.dev.chunks[u/chunkWords].Load(), u/chunkWords
	}
	return in, err
}

// decode is the miss path of fetch: it decodes under decMu — making the
// word's decode page if this is its first decode, and publishing that before
// anything in it — and publishes the entry with a release store, so concurrent
// SM workers never observe a torn sass.Inst.
func (d *Device) decode(pc int32) (*sass.Inst, error) {
	w := int(pc)
	if w <= 0 || w >= d.codeWords {
		return nil, fmt.Errorf("gpu: PC %#x outside code space", pc)
	}
	ch, i := d.chunk(w), w%chunkWords
	d.decMu.Lock()
	defer d.decMu.Unlock()
	slot := &ch.dec[i/decodeWords]
	dp := slot.Load()
	if dp == nil {
		dp = new(decodePage)
		slot.Store(dp)
	}
	k := i % decodeWords
	if atomic.LoadUint32(&dp.valid[k]) == 0 {
		in, err := d.codec.Decode(ch.raw[i*d.codec.InstBytes():])
		if err != nil {
			return nil, fmt.Errorf("gpu: at PC %#x: %w", pc, err)
		}
		dp.inst[k] = in
		atomic.StoreUint32(&dp.valid[k], 1)
	}
	return &dp.inst[k], nil
}

// --- Allocator ---------------------------------------------------------------

// allocator is a simple first-fit free-list allocator for device memory.
type allocator struct {
	spans []span // sorted by base
	sizes map[uint64]uint64
	freed []AllocSpan // bounded free history, oldest first (use-after-free reporting)
}

// freedHistory bounds the allocator's freed-span memory.
const freedHistory = 4096

type span struct{ base, size uint64 }

func newAllocator(base, size uint64) *allocator {
	return &allocator{spans: []span{{base, size}}, sizes: make(map[uint64]uint64)}
}

const allocAlign = 256

func (a *allocator) alloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	n = (n + allocAlign - 1) &^ uint64(allocAlign-1)
	for i, s := range a.spans {
		if s.size >= n {
			addr := s.base
			if s.size == n {
				a.spans = append(a.spans[:i], a.spans[i+1:]...)
			} else {
				a.spans[i] = span{s.base + n, s.size - n}
			}
			a.sizes[addr] = n
			return addr, nil
		}
	}
	return 0, fmt.Errorf("gpu: out of device memory allocating %d bytes", n)
}

func (a *allocator) free(addr uint64) error {
	n, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("gpu: free of unallocated address %#x", addr)
	}
	delete(a.sizes, addr)
	if len(a.freed) == freedHistory {
		copy(a.freed, a.freed[1:])
		a.freed = a.freed[:freedHistory-1]
	}
	a.freed = append(a.freed, AllocSpan{addr, n})
	i := sort.Search(len(a.spans), func(i int) bool { return a.spans[i].base > addr })
	a.spans = append(a.spans, span{})
	copy(a.spans[i+1:], a.spans[i:])
	a.spans[i] = span{addr, n}
	// Coalesce with neighbours.
	if i+1 < len(a.spans) && a.spans[i].base+a.spans[i].size == a.spans[i+1].base {
		a.spans[i].size += a.spans[i+1].size
		a.spans = append(a.spans[:i+1], a.spans[i+2:]...)
	}
	if i > 0 && a.spans[i-1].base+a.spans[i-1].size == a.spans[i].base {
		a.spans[i-1].size += a.spans[i].size
		a.spans = append(a.spans[:i], a.spans[i+1:]...)
	}
	return nil
}
