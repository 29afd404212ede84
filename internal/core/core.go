// Package core implements the NVBit core — the dynamic binary
// instrumentation framework that is this reproduction's primary
// contribution (paper Sections 3–5).
//
// The core attaches to the CUDA-driver analog as its single interposer (the
// LD_PRELOAD moment), propagates driver callbacks to the tool, and provides
// the five user-level API groups of Section 4:
//
//   - Callback API    — application start/termination and driver-call events
//   - Inspection API  — GetInstrs / GetBasicBlocks / GetRelatedFuncs and the
//     Instr abstraction over machine-level SASS
//   - Instrumentation — InsertCall / AddCallArg / RemoveOrig
//   - Control API     — EnableInstrumented / ResetInstrumented / OnCTAExit
//   - Device API      — tool device functions use rdreg/wrreg/rdpred/wrpred
//     (lowered by the PTX dialect) against the saved context image
//
// Internally it follows Section 5's component structure: Driver Interposer,
// Tool Functions Loader, Hardware Abstraction Layer, Instruction Lifter,
// Code Generator and Code Loader/Unloader, plus the six-phase JIT overhead
// accounting of Section 5.2.
package core

import (
	"fmt"
	"time"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/profile"
)

// Tool is the interface an NVBit tool implements. AtCUDACall mirrors
// nvbit_at_cuda_driver_call (Listing 2): it fires on entry (exit=false) and
// exit (exit=true) of every driver API call.
type Tool interface {
	AtInit(n *NVBit)
	AtTerm(n *NVBit)
	AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams)
}

// NVBit is one attached instance of the framework.
type NVBit struct {
	api  *driver.API
	tool Tool
	hal  *HAL

	// scope is the driver scope the instance is bound to: scope 0 for
	// Attach, a fresh one for OpenSession. It holds the instance's flush hook
	// (setFlushHook) and, with a cache, its compiler (compileModule), and its
	// collector receives the instance's records.
	scope *driver.Tenant
	// channels are the channels OpenChannel opened, closed when the
	// attachment ends.
	channels []*channel.Channel
	// ctaExit is the running launch's OnCTAExit callback, nil when it has
	// none; ctaNext is the index of the launch's next CTA to retire.
	ctaExit func(cta int)
	ctaNext int

	loader *toolLoader
	funcs  map[*driver.Function]*funcState
	stats  JITStats
	// liftTime accumulates phases 1–3 so the user-code phase (4) can be
	// measured net of inspection work the tool triggers from inside its
	// callback.
	liftTime time.Duration

	// userPhase tracks whether we are inside the tool's launch callback,
	// so nested inspection work is attributed to the right JIT phase.
	inUserCallback bool
	// injectMode selects trampoline, full-save (ablation) or inline
	// code generation for every visit (see InjectionMode); it is fixed at
	// attach (WithInjectionMode).
	injectMode InjectionMode
	// cache is the content-addressed instrumentation cache (WithJITCache);
	// nil keeps the uncached JIT pipeline. With one, the scope's PTX
	// compiles go through it too (compileModule).
	cache *jitcache.Cache
	// perSiteVisits keeps one visit per instrumented instruction in every
	// mode, as the Code Generator made them before it coalesced visits. Only
	// tests set it (export_test.go), for the per-site build their
	// differentials compare with; the cache key does not cover it.
	perSiteVisits bool
	// trampRaw is materializeArtifact's scratch: the encoding of the
	// trampolines not yet written to the device.
	trampRaw []byte
}

// Attach injects the tool into the driver as the process's preloaded
// interposer library and fires the tool's AtInit callback. The tool is bound
// to scope 0, the scope of every context the application creates itself, so
// it observes all of their driver calls, and exactly one tool can be attached
// this way per driver instance, matching the single-LD_PRELOAD-library rule.
// Options configure the attachment (WithScheduler, WithWatchdogInterval,
// WithTracing); they are applied before the tool's AtInit runs, so the tool
// observes the configured device.
func Attach(api *driver.API, tool Tool, opts ...Option) (*NVBit, error) {
	n, _, err := attach(api, tool, opts, false)
	return n, err
}

// attach is the one body behind Attach and OpenSession. They differ only in
// where the tool is bound: scope 0, which the application's own contexts
// belong to, or a fresh scope with a context of its own.
func attach(api *driver.API, tool Tool, opts []Option, session bool) (*NVBit, *driver.Context, error) {
	cfg := collect(opts)
	scope := api.Scope0()
	if session {
		scope = api.NewScope()
	}
	n := &NVBit{
		api:        api,
		tool:       tool,
		scope:      scope,
		funcs:      make(map[*driver.Function]*funcState),
		cache:      cfg.cache,
		injectMode: cfg.injectMode,
	}
	n.loader = newToolLoader(n)
	if err := cfg.apply(api, scope); err != nil {
		return nil, nil, err
	}
	if err := scope.Bind((*hook)(n)); err != nil {
		return nil, nil, err
	}
	if n.cache != nil {
		scope.SetCompiler(n.compileModule)
	}
	var ctx *driver.Context
	var err error
	if session {
		ctx, err = scope.CtxCreate()
	}
	if err == nil {
		err = safeAtInit(tool, n)
	}
	if err != nil {
		// Dropped without exit callbacks: a tool whose AtInit did not
		// complete must not see its AtTerm.
		_ = scope.Unbind(false)
		n.release()
		return nil, nil, err
	}
	return n, ctx, nil
}

// safeAtInit runs the tool's AtInit with panic recovery: a broken tool must
// fail Attach with an error, not crash the host application it was injected
// into.
func safeAtInit(tool Tool, n *NVBit) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nvbit: tool AtInit panicked: %v", r)
		}
	}()
	tool.AtInit(n)
	return nil
}

// API returns the underlying driver instance.
func (n *NVBit) API() *driver.API { return n.api }

// Device returns the simulated device the framework is bound to.
func (n *NVBit) Device() *gpu.Device { return n.api.Device() }

// HAL returns the hardware abstraction layer (nil before the first context
// is created).
func (n *NVBit) HAL() *HAL { return n.hal }

// hook adapts NVBit to the driver's interposition interface without
// exporting Before/After on the user-visible type.
type hook NVBit

func (h *hook) Before(cbid driver.CBID, name string, p *driver.CallParams) {
	n := (*NVBit)(h)
	if cbid == driver.CBCtxCreate && n.hal == nil {
		// HAL initialization happens when a context is started on a
		// device (paper Section 5.1).
		n.hal = newHAL(n.api.Device())
	}
	if cbid == driver.CBLaunchKernel {
		// An earlier launch whose enter callback failed never reached
		// After, so its OnCTAExit callback may still be set.
		n.endCTAExit()
		prof := n.Profiler()
		var jitBefore JITStats
		var profT0 time.Duration
		if prof != nil {
			jitBefore = n.stats
			profT0 = prof.Now()
		}
		// Phase 4: the user's instrumentation code runs inside this
		// callback (inspecting instructions, inserting calls).
		start := time.Now()
		liftBefore := n.liftTime
		n.inUserCallback = true
		n.tool.AtCUDACall(n, false, cbid, name, p)
		n.inUserCallback = false
		if d := time.Since(start) - (n.liftTime - liftBefore); d > 0 {
			n.stats.UserCode += d
		}
		// At the exit of the driver callback the Code Generator runs
		// for any function with pending instrumentation, and the Code
		// Loader applies the requested code version (Section 5.1).
		if err := n.finalizeAll(p.Launch.Func); err != nil {
			// Instrumentation failures must not be silent: the
			// paper's core would crash the tool; we panic with a
			// precise message, which tests can assert on.
			panic(fmt.Sprintf("nvbit: instrumenting %s: %v", p.Launch.Func.Name, err))
		}
		if prof != nil {
			n.emitJITPhases(prof, jitBefore, profT0, p.Launch.Func)
			fs := n.funcs[p.Launch.Func]
			prof.SetNextKernelInstrumented(fs != nil && fs.resident)
		}
		return
	}
	n.tool.AtCUDACall(n, false, cbid, name, p)
}

// emitJITPhases turns the JITStats delta accumulated across one launch
// callback into KindJITPhase activity records — one per phase that did work,
// laid end to end from t0 in the order the phases execute. Each record is
// parented to the launched function's module-load record, so the trace
// viewer nests the paper's Section 5.2 overhead breakdown under the load.
func (n *NVBit) emitJITPhases(prof *profile.Collector, before JITStats, t0 time.Duration, f *driver.Function) {
	cur, names := n.stats.Components()
	prev, _ := before.Components()
	var parent uint64
	if f.Module != nil {
		parent = f.Module.TraceID
	}
	// The launch's site counts ride on one carrier record: codegen when
	// code was generated in this launch, else cache_hit (every site came
	// from cached artifacts). Metrics aggregation sums both, so a mixed
	// hit/miss finalize is never double-counted.
	tramps := uint64(n.stats.TrampolinesEmitted - before.TrampolinesEmitted)
	visits := uint64(n.stats.Visits - before.Visits)
	saved := uint64(n.stats.SavedRegs - before.SavedRegs)
	inlined := uint64(n.stats.InlinedSites - before.InlinedSites)
	carrier := "cache_hit"
	if n.stats.CodeGen > before.CodeGen {
		carrier = "codegen"
	}
	t := t0
	for i := range cur {
		d := cur[i] - prev[i]
		rec := profile.Record{
			Kind: profile.KindJITPhase, Name: names[i], Kernel: f.Name,
			Parent: parent, Start: t, Dur: d, SM: -1,
		}
		carries := names[i] == carrier && tramps+inlined > 0
		if carries {
			rec.Trampolines, rec.Visits, rec.SavedRegs, rec.InlinedSites = tramps, visits, saved, inlined
		}
		// Phases that did no work are skipped — except the carrier, whose
		// codegen metrics must survive even when the measured duration
		// rounds to zero.
		if d <= 0 && !carries {
			continue
		}
		prof.Emit(rec)
		t += d
	}
}

func (h *hook) After(cbid driver.CBID, name string, p *driver.CallParams, err error) {
	n := (*NVBit)(h)
	if cbid == driver.CBLaunchKernel {
		n.endCTAExit()
		// The launch's records reach the tool before its exit callback.
		for _, ch := range n.channels {
			ch.Drain()
		}
	}
	n.tool.AtCUDACall(n, true, cbid, name, p)
	if cbid == driver.CBAppExit {
		defer n.release()
		n.tool.AtTerm(n)
	}
}

// Malloc allocates device memory for tool state (the __managed__ variables
// of the paper's listings).
func (n *NVBit) Malloc(bytes uint64) (uint64, error) {
	return n.api.Device().Malloc(bytes)
}

// WriteU64 stores a 64-bit value into device memory.
func (n *NVBit) WriteU64(addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return n.api.Device().Write(addr, b[:])
}

// ReadU64 loads a 64-bit value from device memory.
func (n *NVBit) ReadU64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := n.api.Device().Read(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

// ReadU32 loads a 32-bit value from device memory.
func (n *NVBit) ReadU32(addr uint64) (uint32, error) {
	var b [4]byte
	if err := n.api.Device().Read(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 stores a 32-bit value into device memory.
func (n *NVBit) WriteU32(addr uint64, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return n.api.Device().Write(addr, b[:])
}
