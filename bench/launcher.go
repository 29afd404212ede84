package main

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/nvbit"
)

// Span names the launcher records. A function's first launch carries its JIT
// (lift, tool callback, code generation, swap); every later one is steady.
const (
	spanFirstLaunch  = "LaunchKernel.first"
	spanSteadyLaunch = "LaunchKernel.steady"
)

// tracedLauncher wraps every driver call a workload makes in a span. Local
// launchers charge module loads to ptx, memory calls to driver and launches
// to gpu; a remote session charges everything to nvbitd under the wire op's
// name, since the client cannot see past the socket.
type tracedLauncher struct {
	inner  driver.Launcher
	s      scope
	remote bool
	// nv, when set, splits a launch span by the JIT phase counters read
	// before and after the call.
	nv   *nvbit.NVBit
	seen map[*driver.Function]bool
}

// traced returns l unchanged on the untraced pass, so end-to-end numbers
// never pay for the wrapper.
func traced(l driver.Launcher, s scope, remote bool, nv *nvbit.NVBit) driver.Launcher {
	if s.t == nil {
		return l
	}
	return &tracedLauncher{inner: l, s: s, remote: remote, nv: nv, seen: map[*driver.Function]bool{}}
}

func (l *tracedLauncher) op(local, localName, wire string) (string, string) {
	if l.remote {
		return layerNvbitd, "rpc." + wire
	}
	return local, localName
}

func (l *tracedLauncher) ModuleLoadPTX(name, source string) (mod *driver.Module, err error) {
	layer, span := l.op(layerPTX, "ModuleLoadPTX", "loadptx")
	err = l.s.do(layer, span, func(scope) error {
		mod, err = l.inner.ModuleLoadPTX(name, source)
		return err
	})
	return mod, err
}

func (l *tracedLauncher) MemAlloc(n uint64) (addr uint64, err error) {
	layer, span := l.op(layerDriver, "MemAlloc", "memalloc")
	err = l.s.do(layer, span, func(scope) error {
		addr, err = l.inner.MemAlloc(n)
		return err
	})
	return addr, err
}

func (l *tracedLauncher) MemFree(addr uint64) error {
	layer, span := l.op(layerDriver, "MemFree", "memfree")
	return l.s.do(layer, span, func(scope) error { return l.inner.MemFree(addr) })
}

func (l *tracedLauncher) MemcpyHtoD(dst uint64, src []byte) error {
	layer, span := l.op(layerDriver, "MemcpyHtoD", "h2d")
	return l.s.do(layer, span, func(scope) error { return l.inner.MemcpyHtoD(dst, src) })
}

func (l *tracedLauncher) MemcpyDtoH(dst []byte, src uint64) error {
	layer, span := l.op(layerDriver, "MemcpyDtoH", "d2h")
	return l.s.do(layer, span, func(scope) error { return l.inner.MemcpyDtoH(dst, src) })
}

func (l *tracedLauncher) LaunchKernel(f *driver.Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	first := !l.seen[f]
	l.seen[f] = true
	name := spanSteadyLaunch
	if first {
		name = spanFirstLaunch
	}
	layer, name := l.op(layerGPU, name, "launch")
	return l.s.do(layer, name, func(s scope) error {
		var before nvbit.JITStats
		if l.nv != nil {
			before = l.nv.JITStats()
		}
		start := s.t.now()
		err := l.inner.LaunchKernel(f, grid, block, sharedBytes, params)
		if l.nv != nil {
			jitIntervals(s, start, before, l.nv.JITStats())
		}
		return err
	})
}

// jitPhaseLayer maps the program's JIT phase labels to the layer that does
// the work: disassembly is the SASS codec, the cache phases are jitcache, and
// the rest is the core's lifter, tool callback, code generator and loader.
var jitPhaseLayer = map[string]string{
	"retrieve": layerCore, "disassemble": layerSASS, "convert": layerCore,
	"user-code": layerCore, "codegen": layerCore, "swap": layerCore,
	"cache_lookup": layerJITCache, "cache_hit": layerJITCache,
}

// jitIntervals records the JIT phases that ran between two counter reads as
// child spans laid end to end from start, the order the phases execute in.
func jitIntervals(s scope, start int64, before, after nvbit.JITStats) {
	cur, names := after.Components()
	prev, _ := before.Components()
	for i, name := range names {
		d := cur[i] - prev[i]
		s.interval(jitPhaseLayer[name], "jit."+name, start, d)
		if d > 0 {
			start += int64(d)
		}
	}
}
