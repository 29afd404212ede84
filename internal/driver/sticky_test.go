package driver

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// crashPTX traps on a null store.
const crashPTX = `
.visible .entry crash()
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<2>;
	mov.u64 %rd0, 0;
	st.global.u32 [%rd0], %r0;
	exit;
}
`

// spinPTX loops forever.
const spinPTX = `
.visible .entry spin()
{
	.reg .u32 %r<2>;
loop:
	add.u32 %r0, %r0, 1;
	bra loop;
}
`

// crashCtx creates a context, loads crashPTX and faults one launch on it,
// returning the context, the loaded module and the launch error.
func crashCtx(t *testing.T, sched gpu.SchedulerKind) (*Context, *Module, error) {
	t.Helper()
	cfg := gpu.DefaultConfig(sass.Volta)
	cfg.Scheduler = sched
	cfg.WatchdogInterval = 100_000
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", crashPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("crash")
	if err != nil {
		t.Fatal(err)
	}
	lerr := ctx.LaunchKernel(f, gpu.D1(4), gpu.D1(32), 0, nil)
	if lerr == nil {
		t.Fatal("trapping kernel did not error")
	}
	return ctx, mod, lerr
}

// TestLaunchFaultSentinels: every fault kind surfaces with its CUresult
// sentinel visible to errors.Is, plus the *gpu.Fault to errors.As.
func TestLaunchFaultSentinels(t *testing.T) {
	ctx, _, lerr := crashCtx(t, gpu.SchedulerSequential)
	if !errors.Is(lerr, ErrIllegalAddress) {
		t.Fatalf("errors.Is(ErrIllegalAddress) false: %v", lerr)
	}
	if errors.Is(lerr, ErrLaunchTimeout) || errors.Is(lerr, ErrMisalignedAddress) {
		t.Fatalf("error matches the wrong sentinel: %v", lerr)
	}
	f, ok := gpu.AsFault(lerr)
	if !ok {
		t.Fatalf("launch error lost the *gpu.Fault: %v", lerr)
	}
	if f.Kernel != "crash" || f.Kind != gpu.FaultIllegalAddress || f.Lane != 0 {
		t.Fatalf("fault provenance: %+v", f)
	}
	if !strings.Contains(lerr.Error(), "crash") || !strings.Contains(lerr.Error(), "CUDA_ERROR_ILLEGAL_ADDRESS") {
		t.Fatalf("launch error message: %v", lerr)
	}
	_ = ctx
}

// TestWatchdogSentinel: an infinite-loop kernel returns ErrLaunchTimeout
// (and never hangs) under both schedulers.
func TestWatchdogSentinel(t *testing.T) {
	for _, sched := range []gpu.SchedulerKind{gpu.SchedulerSequential, gpu.SchedulerParallelSM} {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := gpu.DefaultConfig(sass.Volta)
			cfg.Scheduler = sched
			cfg.WatchdogInterval = 50_000
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, _ := a.CtxCreate()
			mod, err := ctx.ModuleLoadPTX("app", spinPTX)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := mod.GetFunction("spin")
			lerr := ctx.LaunchKernel(f, gpu.D1(16), gpu.D1(64), 0, nil)
			if !errors.Is(lerr, ErrLaunchTimeout) {
				t.Fatalf("want ErrLaunchTimeout, got %v", lerr)
			}
			df, ok := gpu.AsFault(lerr)
			if !ok || df.Kind != gpu.FaultWatchdogTimeout {
				t.Fatalf("fault: %v", lerr)
			}
			// The fault poisons the context like any other.
			if _, err := ctx.MemAlloc(16); !errors.Is(err, ErrLaunchTimeout) {
				t.Fatalf("context not poisoned by the timeout: %v", err)
			}
		})
	}
}

// TestStickyContext: after a faulting launch every context operation fails
// with the sticky error until ResetPersistingError; fresh contexts are
// unaffected.
func TestStickyContext(t *testing.T) {
	ctx, mod, lerr := crashCtx(t, gpu.SchedulerSequential)

	// GetLastError reports without clearing.
	if got := ctx.GetLastError(); got == nil || got.Error() != lerr.Error() {
		t.Fatalf("GetLastError = %v, want the launch error", got)
	}
	if got := ctx.GetLastError(); got == nil {
		t.Fatal("GetLastError cleared the sticky error")
	}

	// Every subsequent operation fails with the sticky error.
	if _, err := ctx.MemAlloc(64); !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("MemAlloc after fault: %v", err)
	}
	if err := ctx.MemcpyHtoD(heapProbe(t, ctx), []byte{1}); err == nil || !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("MemcpyHtoD after fault: %v", err)
	}
	if err := ctx.MemcpyDtoH(make([]byte, 1), 0); !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("MemcpyDtoH after fault: %v", err)
	}
	if _, err := ctx.ModuleLoadPTX("again", crashPTX); !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("ModuleLoadPTX after fault: %v", err)
	}
	if _, err := mod.GetFunction("crash"); !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("GetFunction after fault: %v", err)
	}
	f := mod.funcs["crash"]
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(1), 0, nil); !errors.Is(err, ErrIllegalAddress) {
		t.Fatalf("LaunchKernel after fault: %v", err)
	}

	// A fresh context on the same device is healthy.
	ctx2, err := ctx.API().CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx2.MemAlloc(64); err != nil {
		t.Fatalf("fresh context poisoned: %v", err)
	}

	// Reset restores the original context.
	ctx.ResetPersistingError()
	if got := ctx.GetLastError(); got != nil {
		t.Fatalf("sticky error survived reset: %v", got)
	}
	if _, err := ctx.MemAlloc(64); err != nil {
		t.Fatalf("MemAlloc after reset: %v", err)
	}
}

// heapProbe returns a valid device address without going through the (maybe
// poisoned) context.
func heapProbe(t *testing.T, c *Context) uint64 {
	t.Helper()
	addr, err := c.Device().Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestHostErrorsDoNotPoison: host-side validation failures (bad memcpy, bad
// launch geometry) are not device faults and must leave the context usable.
func TestHostErrorsDoNotPoison(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	if err := ctx.MemcpyHtoD(0, []byte{1}); err == nil {
		t.Fatal("null-page copy accepted")
	}
	mod, err := ctx.ModuleLoadPTX("app", crashPTX)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.funcs["crash"]
	if err := ctx.LaunchKernel(f, gpu.Dim3{}, gpu.D1(32), 0, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	if got := ctx.GetLastError(); got != nil {
		t.Fatalf("host-side error poisoned the context: %v", got)
	}
	if _, err := ctx.MemAlloc(64); err != nil {
		t.Fatalf("context unusable after host-side errors: %v", err)
	}
}

// failHook fails the selected callbacks with errToolBug.
type failHook struct {
	failBefore map[CBID]bool
	failAfter  map[CBID]bool
}

var errToolBug = errors.New("tool bug")

func (h *failHook) Before(cbid CBID, name string, p *CallParams) error {
	if h.failBefore[cbid] {
		return errToolBug
	}
	return nil
}

func (h *failHook) After(cbid CBID, name string, p *CallParams, result error) error {
	if h.failAfter[cbid] {
		return errToolBug
	}
	return nil
}

// TestHookErrorFailsCall: a failing interposer callback fails the driver
// call with ErrToolCallback wrapped around the callback's own error, and a
// Before failure skips the underlying operation.
func TestHookErrorFailsCall(t *testing.T) {
	a := newAPI(t, sass.Volta)
	h := &failHook{failBefore: map[CBID]bool{CBMemAlloc: true}, failAfter: map[CBID]bool{CBMemcpyHtoD: true}}
	if err := a.Scope0().Bind(h); err != nil {
		t.Fatal(err)
	}
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}

	// Before failure: operation skipped, both errors in the chain.
	if _, err := ctx.MemAlloc(64); !errors.Is(err, ErrToolCallback) || !errors.Is(err, errToolBug) {
		t.Fatalf("MemAlloc with failing Before: %v", err)
	}
	if allocs := ctx.Device().Allocations(); len(allocs) != 0 {
		t.Fatalf("operation ran despite a Before failure: %+v", allocs)
	}

	// After failure: operation performed, error still surfaced.
	dst, err := ctx.Device().Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	cerr := ctx.MemcpyHtoD(dst, []byte{1, 2, 3})
	if !errors.Is(cerr, ErrToolCallback) || !errors.Is(cerr, errToolBug) {
		t.Fatalf("MemcpyHtoD with failing After: %v", cerr)
	}
	buf := make([]byte, 3)
	if err := ctx.Device().Read(dst, buf); err != nil || buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("copy did not happen before the After failure: %v %v", buf, err)
	}

	// The failures do not poison the context: the next healthy call works.
	if err := ctx.MemcpyDtoH(make([]byte, 3), dst); err != nil {
		t.Fatalf("context unusable after failed callbacks: %v", err)
	}

	// A failing AppExit callback surfaces through Close.
	h.failBefore[CBAppExit] = true
	if err := a.Close(); !errors.Is(err, ErrToolCallback) {
		t.Fatalf("Close with a failing hook: %v", err)
	}
}

// flushHookSetter hands each launch it observes its flush hook.
type flushHookSetter struct{ flush gpu.FlushHook }

func (h *flushHookSetter) Before(cbid CBID, name string, p *CallParams) error {
	if cbid == CBLaunchKernel {
		p.Launch.FlushHook = h.flush
	}
	return nil
}

func (h *flushHookSetter) After(CBID, string, *CallParams, error) error { return nil }

// TestLaunchReleasesGateOnPanic: a launch flush hook that panics inside a
// launch unwinds LaunchKernel, and the launch still gives the device back,
// so the next launch on the API runs instead of waiting forever.
func TestLaunchReleasesGateOnPanic(t *testing.T) {
	a := newAPI(t, sass.Volta)
	h := &flushHookSetter{flush: func(int, gpu.FlushPoint) { panic("flush hook bug") }}
	if err := a.Scope0().Bind(h); err != nil {
		t.Fatal(err)
	}
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", addOnePTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("addone")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.MemAlloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	params, err := PackParams(f, buf, uint32(64))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the flush hook's panic did not propagate")
			}
		}()
		_ = ctx.LaunchKernel(f, gpu.D1(2), gpu.D1(32), 0, params)
	}()
	h.flush = nil
	done := make(chan error, 1)
	go func() { done <- ctx.LaunchKernel(f, gpu.D1(2), gpu.D1(32), 0, params) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("launch after the panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("launch after a panicking launch still waits for the device")
	}
	if n := a.Gate().Waiting(); n != 0 {
		t.Fatalf("%d operations waiting at the gate", n)
	}
}
