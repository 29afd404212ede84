// Package nvbit is the public user-level API of the NVBit reproduction —
// what a tool author imports to write an instrumentation tool, mirroring
// nvbit.h from the paper.
//
// A tool implements the Tool interface (the callback API of Listing 2),
// registers its device functions as PTX with RegisterToolPTX (the analog of
// compiling a .cu tool with NVCC and exporting its device functions), and is
// injected into an application's driver with Attach (the LD_PRELOAD moment).
// From its callbacks the tool uses the Inspection API (GetInstrs,
// GetBasicBlocks, GetRelatedFuncs, the Instr methods), the Instrumentation
// API (InsertCall, AddCallArg, RemoveOrig), and the Control API
// (EnableInstrumented, ResetInstrumented, OnCTAExit).
package nvbit

import (
	"nvbitgo/internal/channel"
	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/sass"
)

// Core types re-exported from the framework core.
type (
	// NVBit is one attached framework instance.
	NVBit = core.NVBit
	// Tool is the interface an instrumentation tool implements.
	Tool = core.Tool
	// Instr abstracts one machine-level SASS instruction (Listing 4).
	Instr = core.Instr
	// BasicBlock is one uninterrupted instruction sequence.
	BasicBlock = core.BasicBlock
	// CallArg is one positional injected-function argument.
	CallArg = core.CallArg
	// IPoint selects before/after injection.
	IPoint = core.IPoint
	// JITStats is the JIT overhead breakdown: the paper's six Section 5.2
	// phases plus the instrumentation-cache phases (cache_lookup,
	// cache_hit) and hit/miss/byte counters.
	JITStats = core.JITStats
	// HAL is the hardware abstraction layer view.
	HAL = core.HAL
	// Option configures an Attach call (WithScheduler, WithWatchdogInterval,
	// WithTracing).
	Option = core.Option
	// LaunchDim selects one launch-configuration dimension for ArgLaunchDim.
	LaunchDim = core.LaunchDim
	// InjectionMode selects the code-generation strategy for injected calls
	// (trampoline, full-save ablation, or inline splicing).
	InjectionMode = core.InjectionMode
)

// Injection modes (WithInjectionMode).
const (
	// InjectTrampoline is the paper's default: per-visit trampolines with
	// liveness-minimal register save sets.
	InjectTrampoline = core.InjectTrampoline
	// InjectFullSave is the ablation mode: trampolines saving the full
	// register file at every site.
	InjectFullSave = core.InjectFullSave
	// InjectInline splices tool bodies directly into the instruction stream
	// when enough dead registers exist — no save/restore, no CAL/RET —
	// falling back to trampolines otherwise.
	InjectInline = core.InjectInline
)

// ParseInjectionMode parses "trampoline", "full-save" or "inline".
var ParseInjectionMode = core.ParseInjectionMode

// Activity tracing and metrics (docs/observability.md): with
// WithTracing the framework records a CUPTI-style activity timeline —
// module loads with their JIT-phase children, memory traffic, kernel
// launches with per-SM spans, tool-callback time — retrievable through
// NVBit.Profiler.
type (
	// Profiler collects typed activity records into a bounded ring.
	Profiler = profile.Collector
	// Record is one typed activity record.
	Record = profile.Record
	// RecordKind classifies an activity record.
	RecordKind = profile.Kind
	// KernelMetrics is one kernel's aggregated launch metrics (the
	// per-kernel table behind the paper's Figures 7–8).
	KernelMetrics = profile.KernelMetrics
	// ChromeTrace is the chrome://tracing JSON document form of a record
	// timeline.
	ChromeTrace = profile.ChromeTrace
)

// Activity record kinds.
const (
	KindCtxCreate    = profile.KindCtxCreate
	KindModuleLoad   = profile.KindModuleLoad
	KindJITPhase     = profile.KindJITPhase
	KindMemAlloc     = profile.KindMemAlloc
	KindMemFree      = profile.KindMemFree
	KindMemcpyH2D    = profile.KindMemcpyH2D
	KindMemcpyD2H    = profile.KindMemcpyD2H
	KindKernel       = profile.KindKernel
	KindSMSpan       = profile.KindSMSpan
	KindToolCallback = profile.KindToolCallback
	KindChannelFlush = profile.KindChannelFlush
	KindChannelDrain = profile.KindChannelDrain
)

// Device→host streaming channels (docs/channels.md): a record stream with
// one buffer per SM, mid-kernel flushes, delivery at every launch exit and
// selectable backpressure. A tool opens one with NVBit.OpenChannel from
// AtInit, handing over the device function that pushes its records.
type (
	// Channel is one open device→host record stream.
	Channel = channel.Channel
	// ChannelConfig configures OpenChannel.
	ChannelConfig = channel.Config
	// ChannelStats is a snapshot of a channel's delivery/drop counters.
	ChannelStats = channel.Stats
	// ChannelPolicy selects the full-buffer backpressure behaviour.
	ChannelPolicy = channel.Policy
)

// Channel backpressure policies.
const (
	// ChannelDrop counts and discards pushes into a full buffer.
	ChannelDrop = channel.Drop
	// ChannelBlock makes full-buffer pushes wait for a mid-kernel flush;
	// no record is ever lost.
	ChannelBlock = channel.Block
)

// Content-addressed instrumentation cache (docs/jitcache.md): generated
// trampolines and the attachment's compiled PTX modules are fingerprinted by
// everything that determines them and reused across functions, attaches and
// — with a disk directory — processes. Share one JITCache between concurrent
// attaches to coalesce racing JITs of the same function into a single
// generation.
type (
	// JITCache is a two-tier (memory LRU + optional disk) artifact store.
	JITCache = jitcache.Cache
	// JITCacheStats is a snapshot of a JITCache's counters.
	JITCacheStats = jitcache.Stats
)

// NewJITCache opens an instrumentation cache. dir is the disk tier root (""
// for memory-only); maxMemBytes bounds the in-memory tier (<= 0 selects the
// default).
func NewJITCache(dir string, maxMemBytes int64) (*JITCache, error) {
	return jitcache.New(dir, maxMemBytes)
}

// Attach options.
var (
	// WithScheduler selects the CTA-to-SM execution backend.
	WithScheduler = core.WithScheduler
	// WithWatchdogInterval sets the launch watchdog's per-CTA budget.
	WithWatchdogInterval = core.WithWatchdogInterval
	// WithTracing attaches an activity collector (0 = default capacity).
	WithTracing = core.WithTracing
	// WithJITCache attaches a content-addressed instrumentation cache.
	WithJITCache = core.WithJITCache
	// WithInjectionMode selects the injected-call codegen strategy.
	WithInjectionMode = core.WithInjectionMode
)

// Trace export helpers.
var (
	// ToChromeTrace converts records to the chrome://tracing document form.
	ToChromeTrace = profile.ToChromeTrace
	// WriteChromeTrace writes records as chrome://tracing-loadable JSON.
	WriteChromeTrace = profile.WriteChromeTrace
	// FormatMetrics renders a per-kernel metrics table as aligned text.
	FormatMetrics = profile.FormatMetrics
)

// Scheduler kinds (WithScheduler).
const (
	SchedulerSequential = gpu.SchedulerSequential
	SchedulerParallelSM = gpu.SchedulerParallelSM
)

// Driver-facing types a tool sees in callbacks.
type (
	// CBID is a driver callback id (CUPTI-style).
	CBID = driver.CBID
	// CallParams is the per-call parameter union.
	CallParams = driver.CallParams
	// Function is the CUfunction analog.
	Function = driver.Function
	// Module is the CUmodule analog.
	Module = driver.Module
)

// Injection points.
const (
	IPointBefore = core.IPointBefore
	IPointAfter  = core.IPointAfter
)

// Driver callback ids.
const (
	CBCtxCreate      = driver.CBCtxCreate
	CBModuleLoadData = driver.CBModuleLoadData
	CBMemAlloc       = driver.CBMemAlloc
	CBMemFree        = driver.CBMemFree
	CBMemcpyHtoD     = driver.CBMemcpyHtoD
	CBMemcpyDtoH     = driver.CBMemcpyDtoH
	CBLaunchKernel   = driver.CBLaunchKernel
	CBAppExit        = driver.CBAppExit
)

// Device-fault model (docs/faults.md): a kernel trap surfaces as a *Fault
// wrapped in a typed CUresult-style sentinel; the faulting context is then
// sticky-poisoned until Context.ResetPersistingError.
type (
	// Fault is a structured device-side execution fault with kernel, PC,
	// SASS and SM/CTA/warp/lane provenance.
	Fault = gpu.Fault
	// FaultKind classifies a fault.
	FaultKind = gpu.FaultKind
)

// Fault kinds.
const (
	FaultIllegalAddress     = gpu.FaultIllegalAddress
	FaultMisalignedAddress  = gpu.FaultMisalignedAddress
	FaultInvalidInstruction = gpu.FaultInvalidInstruction
	FaultStackOverflow      = gpu.FaultStackOverflow
	FaultStackUnderflow     = gpu.FaultStackUnderflow
	FaultWatchdogTimeout    = gpu.FaultWatchdogTimeout
	FaultSharedOOB          = gpu.FaultSharedOOB
	FaultLocalOOB           = gpu.FaultLocalOOB
	FaultConstOOB           = gpu.FaultConstOOB
)

// AllocSpan is one device-memory allocation, [Base, Base+Size): memory-checker
// tools validate effective addresses against the device's allocation table.
type AllocSpan = gpu.AllocSpan

// AsFault unwraps a launch error looking for its *Fault.
var AsFault = gpu.AsFault

// CUresult-style sentinels for errors.Is classification of launch failures.
var (
	ErrIllegalAddress     = driver.ErrIllegalAddress
	ErrMisalignedAddress  = driver.ErrMisalignedAddress
	ErrIllegalInstruction = driver.ErrIllegalInstruction
	ErrHardwareStackError = driver.ErrHardwareStackError
	ErrLaunchTimeout      = driver.ErrLaunchTimeout
	ErrLaunchFailed       = driver.ErrLaunchFailed
	ErrToolCallback       = driver.ErrToolCallback
)

// Pred is a predicate register index, as ArgPred takes and GetPredicate
// returns.
type Pred = sass.Pred

// RegSet is a dense general-purpose-register set, as returned by
// NVBit.LiveRegs — the per-site result of the backward liveness analysis
// that sizes the trampoline save set (Section 5.1).
type RegSet = sass.RegSet

// PT is the always-true predicate.
const PT = sass.PT

// Memory spaces reported by Instr.GetMemOpSpace.
const (
	MemNone   = sass.MemNone
	MemGlobal = sass.MemGlobal
	MemShared = sass.MemShared
	MemLocal  = sass.MemLocal
	MemConst  = sass.MemConst
)

// Attach injects a tool into an application's driver instance as the
// process's preloaded interposer library and fires its AtInit callback. The
// tool is bound to the driver's scope 0, the scope of every context the
// application creates with CtxCreate: it observes all of their driver calls,
// and only one such tool can be attached per driver (the paper's
// single-LD_PRELOAD-library rule). Options configure the attachment
// (WithScheduler, WithWatchdogInterval, WithTracing) and are applied before
// AtInit runs. Use OpenSession to run several tools concurrently on one
// device, each bound to a scope and context of its own.
func Attach(api *driver.API, tool Tool, opts ...Option) (*NVBit, error) {
	return core.Attach(api, tool, opts...)
}

// Configure applies attach options (scheduler, watchdog, tracing) to a
// driver instance's device and scope 0 without attaching a tool — the single options
// struct also covers the uninjected-run path, so launchers need no
// tool-or-not special casing.
func Configure(api *driver.API, opts ...Option) {
	core.Configure(api, opts...)
}

// Session is one tenant's attachment to a shared driver: its own scope and
// context, tool, JIT state and (with WithTracing) activity timeline. Any
// number of sessions coexist on one device; the driver schedules their
// kernels onto the shared SM capacity with fair-share admission and rejects
// work with ErrDeviceOverloaded under overload. See docs/nvbitd.md for the
// daemon built on top of sessions, and docs/tools.md for how Attach and
// OpenSession relate.
type Session = core.Session

// OpenSession attaches a tool to a fresh scope and context on the driver
// instead of to the whole process. The tool's AtInit fires before OpenSession returns; its
// AtTerm fires at Session.Close. The session's launches, channels and
// activity records are isolated from every other session's.
func OpenSession(api *driver.API, tool Tool, opts ...Option) (*Session, error) {
	return core.OpenSession(api, tool, opts...)
}

// Load-shedding (docs/nvbitd.md): when the driver's fair-share gate is
// saturated, device-owning calls fail fast with a typed *OverloadError
// wrapping the ErrDeviceOverloaded sentinel; the rejected session stays
// healthy and may retry.
type OverloadError = driver.OverloadError

// ErrDeviceOverloaded classifies load-shedding rejections via errors.Is.
var ErrDeviceOverloaded = driver.ErrDeviceOverloaded

// AsOverload unwraps an error looking for its *OverloadError.
var AsOverload = driver.AsOverload

// Argument constructors (nvbit_add_call_arg variants); see docs/tools.md for
// the full mapping.
var (
	ArgReg       = core.ArgReg
	ArgReg64     = core.ArgReg64
	ArgConst32   = core.ArgConst32
	ArgConst64   = core.ArgConst64
	ArgConstBank = core.ArgConstBank
	ArgPred      = core.ArgPred
	ArgSitePred  = core.ArgSitePred
	ArgMRefAddr  = core.ArgMRefAddr
	ArgLaunchDim = core.ArgLaunchDim
)

// Launch-configuration dimensions for ArgLaunchDim.
const (
	GridDimX  = core.GridDimX
	GridDimY  = core.GridDimY
	GridDimZ  = core.GridDimZ
	BlockDimX = core.BlockDimX
	BlockDimY = core.BlockDimY
	BlockDimZ = core.BlockDimZ
)
