// Package driver implements the CUDA-driver analog of this NVBit
// reproduction: contexts, modules, functions, memory and launch APIs, plus
// the interposition boundary that the NVBit core hooks.
//
// On a real system, compute runtimes (CUDA, OpenCL, OpenACC, CUDA-Fortran)
// all sit on top of the CUDA driver API, and NVBit interposes that API via
// LD_PRELOAD. Here, applications call this package directly, and Hooks
// observe driver calls with CUPTI-style enter/exit callbacks and callback
// ids.
//
// Tenancy has one key, the scope. Every context belongs to a scope, and a
// scope (Tenant) holds what is bound to it: the hook observing its calls,
// the collector recording its activity, the flush hook its launches run and
// the compiler its PTX loads go through. Scope 0 exists from New and owns
// every CtxCreate context — it is the process a tool library is preloaded
// into, so at most one hook binds to it, matching the paper's "only a single
// library can be injected" rule. A session is a fresh scope with its own
// context (NewScope); any number coexist on one device. A hook observes a
// call iff the call's context is in the hook's scope, so two tools never
// instrument the same loaded function, and the fair-share Gate serializes
// the scopes' device-owning operations (module loads, memory traffic,
// launches) with least-accumulated-cycles admission and bounded-queue
// load-shedding (OverloadError).
package driver

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// CBID enumerates driver API callback ids, mirroring CUPTI's driver-call
// enumeration (paper Section 2.2).
type CBID int

const (
	CBCtxCreate CBID = iota
	CBModuleLoadData
	CBModuleGetFunction
	CBMemAlloc
	CBMemFree
	CBMemcpyHtoD
	CBMemcpyDtoH
	CBLaunchKernel
	CBAppExit // synthesized when the application shuts the driver down
)

var cbidNames = [...]string{
	"cuCtxCreate", "cuModuleLoadData", "cuModuleGetFunction",
	"cuMemAlloc", "cuMemFree", "cuMemcpyHtoD", "cuMemcpyDtoH",
	"cuLaunchKernel", "appExit",
}

func (c CBID) String() string {
	if c >= 0 && int(c) < len(cbidNames) {
		return cbidNames[c]
	}
	return fmt.Sprintf("CBID(%d)", int(c))
}

// LaunchParams are the mutable parameters of a cuLaunchKernel interposition.
type LaunchParams struct {
	Func        *Function
	Grid, Block gpu.Dim3
	SharedBytes int    // dynamic shared memory
	ParamData   []byte // raw parameter block
}

// CallParams is the parameter union passed to hooks; the populated field
// depends on the CBID.
type CallParams struct {
	Ctx    *Context
	Launch *LaunchParams // CBLaunchKernel
	Module *Module       // CBModuleLoadData, CBModuleGetFunction
	Func   *Function     // CBModuleGetFunction
	Addr   uint64        // CBMemAlloc (result), CBMemFree, CBMemcpy*
	Bytes  int           // CBMemAlloc, CBMemcpy*
}

// Hook observes driver API calls. Before fires when the application enters
// the driver call; After fires once the driver has performed it. This is the
// boundary the NVBit core's Driver Interposer occupies.
type Hook interface {
	Before(cbid CBID, name string, p *CallParams)
	After(cbid CBID, name string, p *CallParams, result error)
}

// Launcher is the minimal driver surface a workload needs to load code, move
// memory and launch kernels. *Context implements it locally; nvbitd's remote
// session client implements it over the wire, so workloads run unchanged
// against either.
type Launcher interface {
	ModuleLoadPTX(name, source string) (*Module, error)
	MemAlloc(n uint64) (uint64, error)
	MemFree(addr uint64) error
	MemcpyHtoD(dst uint64, src []byte) error
	MemcpyDtoH(dst []byte, src uint64) error
	LaunchKernel(f *Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error
}

var _ Launcher = (*Context)(nil)

// Tenant is one scope of the driver and what is bound to it. "Whose hook,
// whose collector, whose flush hook, whose compiler" has one answer, the
// Tenant of the call's context: its ID is the gate's fair-share key, and
// resolve is the only place a scope is mapped to its hook, its collector and
// the flush hook of its launches.
type Tenant struct {
	// ID is the scope id: 0 for the process scope, unique per NewScope.
	ID  uint64
	api *API

	// hook, prof, flush and compile are guarded by api.mu.
	hook    Hook
	prof    *profile.Collector
	flush   gpu.FlushHook
	compile Compiler
}

// Compiler compiles one PTX module for a device family. ptx.Compile is the
// default; a scope may put a front before it, such as the NVBit core's
// module cache, which must return what ptx.Compile would.
type Compiler func(name, source string, family sass.Family) (*ptx.Module, error)

// API is the driver instance bound to one simulated device.
type API struct {
	dev  *gpu.Device
	gate *Gate

	scope0 *Tenant

	// closed is set by Close; from then on every driver call fails.
	closed atomic.Bool

	// mu guards bound/nextScope and every Tenant's binding.
	mu        sync.Mutex
	bound     []*Tenant // tenants with a hook, in bind order
	nextScope uint64
}

// errClosed is every driver call's error once the API is closed.
var errClosed = errors.New("driver: closed")

// New initializes the driver on a fresh simulated device.
func New(cfg gpu.Config) (*API, error) {
	dev, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	a := &API{dev: dev, gate: NewGate(DefaultQueueLimit)}
	a.scope0 = &Tenant{api: a}
	return a, nil
}

// Scope0 returns the process scope: the one every CtxCreate context belongs
// to and a preloaded tool library binds to.
func (a *API) Scope0() *Tenant { return a.scope0 }

// NewScope creates a fresh scope for one session. Nothing is bound to it and
// it has no context yet (Tenant.CtxCreate); the driver keeps no reference to
// it beyond its binding, so a closed session is garbage.
func (a *API) NewScope() *Tenant {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextScope++
	return &Tenant{ID: a.nextScope, api: a}
}

// Bind attaches a hook to the scope: from now on it observes exactly the
// driver calls made on the scope's contexts, the creation of those contexts
// included. A scope takes one hook — for scope 0 that is the paper's "only a
// single library can be injected" rule.
func (t *Tenant) Bind(h Hook) error {
	if h == nil {
		return fmt.Errorf("driver: nil hook")
	}
	a := t.api
	a.mu.Lock()
	defer a.mu.Unlock()
	if t.hook != nil {
		return fmt.Errorf("driver: an interposer library is already injected")
	}
	t.hook = h
	a.bound = append(a.bound, t)
	return nil
}

// Unbind detaches the scope's hook; further driver calls on the scope run
// uninstrumented. With atExit the hook first receives its synthetic
// application-exit callbacks (where tools flush their results) — no other
// scope sees them — and the first error of the two is returned; without, it
// is dropped silently, the cleanup path when attaching failed partway. The
// scope keeps its collector. Unbind is idempotent.
func (t *Tenant) Unbind(atExit bool) error {
	a := t.api
	a.mu.Lock()
	h, prof := t.hook, t.prof
	t.hook = nil
	if i := slices.Index(a.bound, t); i >= 0 {
		a.bound = slices.Delete(a.bound, i, i+1)
	}
	a.mu.Unlock()
	if h == nil || !atExit {
		return nil
	}
	p := &CallParams{}
	err := fire(h, prof, CBAppExit, false, p, nil)
	if aerr := fire(h, prof, CBAppExit, true, p, nil); err == nil {
		err = aerr
	}
	return err
}

// SetCollector gives the scope its activity collector (nil turns tracing
// off): the scope's driver calls, kernel launches and tool callbacks record
// into it from the next call on. Channels are handed it when they open.
func (t *Tenant) SetCollector(p *profile.Collector) {
	t.api.mu.Lock()
	t.prof = p
	t.api.mu.Unlock()
}

// Collector returns the scope's activity collector, nil when it does not
// trace.
func (t *Tenant) Collector() *profile.Collector {
	_, prof, _ := t.resolve()
	return prof
}

// SetFlushHook replaces the hook the simulator runs at the sweep and CTA
// boundaries of the scope's launches (nil runs none): the attachment's
// channel flushes and CTA-exit callback. Call between the scope's launches.
func (t *Tenant) SetFlushHook(hook gpu.FlushHook) {
	t.api.mu.Lock()
	t.flush = hook
	t.api.mu.Unlock()
}

// FlushHook returns the scope's flush hook, nil when it has none.
func (t *Tenant) FlushHook() gpu.FlushHook {
	_, _, flush := t.resolve()
	return flush
}

// SetCompiler replaces the compiler the scope's PTX module loads and its
// attachment's tool functions compile through (nil selects ptx.Compile).
func (t *Tenant) SetCompiler(c Compiler) {
	t.api.mu.Lock()
	t.compile = c
	t.api.mu.Unlock()
}

// Compile compiles a PTX module for the scope's device through the scope's
// compiler.
func (t *Tenant) Compile(name, source string) (*ptx.Module, error) {
	t.api.mu.Lock()
	compile := t.compile
	t.api.mu.Unlock()
	if compile == nil {
		compile = ptx.Compile
	}
	return compile(name, source, t.api.dev.Family())
}

// resolve maps the scope to the hook observing its calls (nil when none is
// bound), the collector recording them (nil when tracing is off) and the
// flush hook its launches run. A hook of either kind observes a call iff
// the call's context is in its scope, so this lookup is the whole isolation
// rule.
func (t *Tenant) resolve() (Hook, *profile.Collector, gpu.FlushHook) {
	t.api.mu.Lock()
	defer t.api.mu.Unlock()
	return t.hook, t.prof, t.flush
}

// HookCount reports how many scopes have a hook bound. Monitoring and leak
// tests use it: every session close must return the count to its pre-open
// value.
func (a *API) HookCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.bound)
}

// Device exposes the underlying simulated device. The NVBit core uses this
// privileged access for code reads/writes and trampoline allocation; well-
// behaved applications never need it.
func (a *API) Device() *gpu.Device { return a.dev }

// Gate exposes the fair-share admission gate serializing device-owning
// operations across sessions; nvbitd tunes its queue limit for
// load-shedding.
func (a *API) Gate() *Gate { return a.gate }

// fire runs one callback of a hook — enter, or with exit set the exit
// callback carrying the call's result — inside its tool-callback activity
// record (emitted even when the callback panics, so the trace shows where
// the time went). A panic is recovered into an ErrToolCallback error: a
// broken tool turns into a failing driver call instead of a crashed host
// process.
func fire(h Hook, prof *profile.Collector, cbid CBID, exit bool, p *CallParams, result error) (err error) {
	defer recoverHookPanic(cbid, &err)
	if prof != nil {
		name, t0 := cbid.String()+":enter", prof.Now()
		if exit {
			name = cbid.String() + ":exit"
		}
		defer func() {
			prof.Emit(profile.Record{
				Kind: profile.KindToolCallback, Name: name,
				Start: t0, Dur: prof.Now() - t0, SM: -1,
			})
		}()
	}
	if exit {
		h.After(cbid, cbid.String(), p, result)
	} else {
		h.Before(cbid, cbid.String(), p)
	}
	return nil
}

// Close shuts the driver down, detaching every bound scope the same way:
// each hook receives its synthetic application-exit callbacks — sessions
// first, then scope 0's preloaded tool. Once every scope has unbound, the
// device hands its execution state to the next device (gpu.Device.Close).
// Every driver call after Close fails; the device's memory and Stats stay
// readable. It returns the first error (tools flush their results at exit,
// so a panicking AtTerm matters). Close must not race with a driver call.
func (a *API) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	a.mu.Lock()
	sessions := slices.DeleteFunc(slices.Clone(a.bound), func(t *Tenant) bool { return t == a.scope0 })
	a.mu.Unlock()
	var first error
	for _, t := range append(sessions, a.scope0) {
		if err := t.Unbind(true); err != nil && first == nil {
			first = err
		}
	}
	a.dev.Close()
	return first
}

// Context is the CUcontext analog: the handle driver calls are made on, plus
// the CUDA-style sticky error. After a kernel faults, the context is
// poisoned: every subsequent call on it fails with the sticky error until
// ResetPersistingError (or a fresh context) — exactly how a real context
// behaves after CUDA_ERROR_ILLEGAL_ADDRESS and friends.
type Context struct {
	api    *API
	tenant *Tenant

	mu     sync.Mutex
	sticky error
}

// CtxCreate creates a context in scope 0.
func (a *API) CtxCreate() (*Context, error) { return a.scope0.CtxCreate() }

// CtxCreate creates a context in the scope. A hook bound to the scope
// observes the creation itself (where the NVBit core initializes its HAL).
func (t *Tenant) CtxCreate() (*Context, error) {
	a := t.api
	c := &Context{api: a, tenant: t}
	p := CallParams{Ctx: c}
	rec := profile.Record{Kind: profile.KindCtxCreate, Name: CBCtxCreate.String()}
	// Context creation is device-owning work (the core's HAL init may write
	// device state), so it runs inside the gate's admission window.
	if err := c.interposed(CBCtxCreate, true, &p, &rec, func() error { return nil }); err != nil {
		return nil, err
	}
	return c, nil
}

// Scope returns the id of the scope the context belongs to (0 for CtxCreate
// contexts).
func (c *Context) Scope() uint64 { return c.tenant.ID }

// stickyErr returns the context's persisting error, if any.
func (c *Context) stickyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sticky
}

// poison records a device fault as the context's persisting error. The first
// fault wins; later ones (on a context the application keeps using after a
// reset race) do not overwrite it.
func (c *Context) poison(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sticky == nil {
		c.sticky = err
	}
}

// GetLastError returns the sticky error poisoning the context, without
// clearing it (the cuCtxGetLastError-style query). Nil means the context is
// healthy.
func (c *Context) GetLastError() error { return c.stickyErr() }

// ResetPersistingError clears the context's sticky error, restoring it to a
// usable state. Device memory contents are preserved (this models the
// "create a new context / reset the error" recovery path; the simulator has
// no per-context address spaces to tear down).
func (c *Context) ResetPersistingError() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sticky = nil
}

// API returns the driver instance that owns the context.
func (c *Context) API() *API { return c.api }

// Device returns the context's device.
func (c *Context) Device() *gpu.Device { return c.api.dev }

// interposed is the one path a driver call takes through the interposition
// boundary: the scope's hook sees the call enter, op does the work, the
// scope's collector records it, the hook sees it exit with op's error, and
// an error from either callback fails the call (after an enter failure op is
// skipped). A closed API refuses every call. With gated the call owns the
// device: a poisoned context refuses it, and it runs — callbacks included — inside the gate's admission window.
//
// p and rec belong to the caller, whose op fills in what only the operation
// learns (an allocation's address, a looked-up function). rec is stamped and
// emitted when the scope traces and op succeeded, and gets its ID back; nil
// means the call has no record of its own. A caller that did part of the
// call's work before it (a PTX load compiles first) passes rec with the
// Start it read then, and the record spans from there. The callbacks get a
// copy of p, made only when a hook observes the call: what an interface
// method receives escapes, and an unobserved call must not allocate.
func (c *Context) interposed(cbid CBID, gated bool, p *CallParams, rec *profile.Record, op func() error) error {
	if c.api.closed.Load() {
		return errClosed
	}
	if gated {
		if err := c.stickyErr(); err != nil {
			return err
		}
		if err := c.api.gate.Admit(c.tenant.ID); err != nil {
			return err
		}
		defer c.api.gate.Release(c.tenant.ID, 0)
	}
	hook, prof, _ := c.tenant.resolve()
	var seen *CallParams
	if hook != nil {
		seen = new(CallParams)
		*seen = *p
		if err := fire(hook, prof, cbid, false, seen, nil); err != nil {
			return err
		}
	}
	var t0 time.Duration
	if prof != nil {
		t0 = prof.Now()
	}
	err := op()
	if prof != nil && rec != nil && err == nil {
		if rec.Start == 0 {
			rec.Start = t0
		}
		rec.Dur, rec.SM = prof.Now()-rec.Start, -1
		rec.ID = prof.Emit(*rec)
	}
	if hook != nil {
		*seen = *p
		if aerr := fire(hook, prof, cbid, true, seen, err); err == nil {
			err = aerr
		}
	}
	return err
}

// MemAlloc allocates device global memory (cuMemAlloc).
func (c *Context) MemAlloc(n uint64) (uint64, error) {
	p := CallParams{Ctx: c, Bytes: int(n)}
	rec := profile.Record{Kind: profile.KindMemAlloc, Name: CBMemAlloc.String(), Bytes: n}
	err := c.interposed(CBMemAlloc, true, &p, &rec, func() (err error) {
		p.Addr, err = c.api.dev.Malloc(n)
		rec.Addr = p.Addr
		return err
	})
	return p.Addr, err
}

// MemFree releases device memory (cuMemFree).
func (c *Context) MemFree(addr uint64) error {
	p := CallParams{Ctx: c, Addr: addr}
	rec := profile.Record{Kind: profile.KindMemFree, Name: CBMemFree.String(), Addr: addr}
	return c.interposed(CBMemFree, true, &p, &rec, func() error { return c.api.dev.Free(addr) })
}

// MemcpyHtoD copies host memory to the device (cuMemcpyHtoD).
func (c *Context) MemcpyHtoD(dst uint64, src []byte) error {
	p := CallParams{Ctx: c, Addr: dst, Bytes: len(src)}
	rec := profile.Record{Kind: profile.KindMemcpyH2D, Name: CBMemcpyHtoD.String(), Addr: dst, Bytes: uint64(len(src))}
	return c.interposed(CBMemcpyHtoD, true, &p, &rec, func() error { return c.api.dev.Write(dst, src) })
}

// MemcpyDtoH copies device memory to the host (cuMemcpyDtoH).
func (c *Context) MemcpyDtoH(dst []byte, src uint64) error {
	p := CallParams{Ctx: c, Addr: src, Bytes: len(dst)}
	rec := profile.Record{Kind: profile.KindMemcpyD2H, Name: CBMemcpyDtoH.String(), Addr: src, Bytes: uint64(len(dst))}
	return c.interposed(CBMemcpyDtoH, true, &p, &rec, func() error { return c.api.dev.Read(src, dst) })
}

// LaunchKernel launches a kernel function (cuLaunchKernel). The interposer's
// Before callback fires first — that is where the NVBit core inspects and
// instruments the function and decides which code version runs — then the
// kernel executes on the device. The whole window (JIT included) runs under
// the gate's admission, so concurrent sessions' launches are serialized onto
// the shared SM capacity in least-accumulated-cycles order; under overload
// the launch is rejected with an OverloadError before any tool work runs.
// Unlike the other device-owning calls it returns the window as soon as the
// kernel has run, charged with the launch's cycles, so the exit callbacks
// (where the framework drains the attachment's channels) do not hold the
// device.
func (c *Context) LaunchKernel(f *Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	if c.api.closed.Load() {
		return errClosed
	}
	if err := c.stickyErr(); err != nil {
		return err
	}
	if f == nil {
		return fmt.Errorf("driver: launch of nil function")
	}
	if !f.Entry {
		return fmt.Errorf("driver: %s is not a kernel entry", f.Name)
	}
	scope := c.tenant.ID
	if err := c.api.gate.Admit(scope); err != nil {
		return fmt.Errorf("driver: launching %s: %w", f.Name, err)
	}
	lp := &LaunchParams{Func: f, Grid: grid, Block: block, SharedBytes: sharedBytes, ParamData: params}
	p := CallParams{Ctx: c, Launch: lp}
	launched := false
	err := c.interposed(CBLaunchKernel, false, &p, nil, func() error {
		_, prof, flush := c.tenant.resolve()
		st, err := c.api.dev.Launch(gpu.LaunchSpec{
			Entry:       f.launchAddr(),
			Name:        f.Name,
			Grid:        lp.Grid,
			Block:       lp.Block,
			Params:      lp.ParamData,
			SharedBytes: f.SharedBytes + lp.SharedBytes,
			Prof:        prof,
			FlushHook:   flush,
		})
		launched = true
		c.api.gate.Release(scope, st.Cycles)
		if err != nil {
			_, isFault := gpu.AsFault(err)
			err = mapLaunchError(f.Name, err)
			if isFault {
				// Device faults poison the context, CUDA-style; host-side
				// launch validation failures (bad grid, oversized shared
				// memory) leave it usable.
				c.poison(err)
			}
		}
		return err
	})
	if !launched {
		c.api.gate.Release(scope, 0) // the enter callbacks refused the launch
	}
	return err
}

// PackParams marshals typed arguments into the raw parameter block matching
// the function's parameter table (uint64 device pointers, uint32/int32
// scalars, float32).
func PackParams(f *Function, args ...any) ([]byte, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("driver: %s takes %d parameters, got %d", f.Name, len(f.Params), len(args))
	}
	buf := make([]byte, f.ParamBytes)
	for i, p := range f.Params {
		switch v := args[i].(type) {
		case uint64:
			if p.Bytes != 8 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got uint64", f.Name, p.Name, p.Bytes)
			}
			putU64(buf[p.Offset:], v)
		case uint32:
			if p.Bytes != 4 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got uint32", f.Name, p.Name, p.Bytes)
			}
			putU32(buf[p.Offset:], v)
		case int:
			if p.Bytes == 8 {
				putU64(buf[p.Offset:], uint64(v))
			} else {
				putU32(buf[p.Offset:], uint32(v))
			}
		case float32:
			if p.Bytes != 4 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got float32", f.Name, p.Name, p.Bytes)
			}
			putF32(buf[p.Offset:], v)
		default:
			return nil, fmt.Errorf("driver: %s parameter %s: unsupported argument type %T", f.Name, p.Name, args[i])
		}
	}
	return buf, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func putF32(b []byte, v float32) {
	putU32(b, f32bits(v))
}

// ptxParamsOf re-exports the compiled parameter table type for module.go.
type ptxParam = ptx.Param
