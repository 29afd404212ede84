package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// errorHook records the results passed to After callbacks.
type errorHook struct {
	results map[CBID][]error
}

func (h *errorHook) Before(cbid CBID, name string, p *CallParams) error { return nil }

func (h *errorHook) After(cbid CBID, name string, p *CallParams, err error) error {
	if h.results == nil {
		h.results = make(map[CBID][]error)
	}
	h.results[cbid] = append(h.results[cbid], err)
	return nil
}

// TestAfterCallbackSeesErrors: the interposer must observe driver-call
// failures — tools key error handling off the exit callback's result.
func TestAfterCallbackSeesErrors(t *testing.T) {
	a := newAPI(t, sass.Volta)
	h := &errorHook{}
	if err := a.Scope0().Bind(h); err != nil {
		t.Fatal(err)
	}
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	// Failing memcpy (null page).
	if err := ctx.MemcpyHtoD(0, []byte{1}); err == nil {
		t.Fatal("null-page copy accepted")
	}
	// Failing launch (kernel traps on a null store).
	mod, err := ctx.ModuleLoadPTX("app", `
.visible .entry crash()
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<2>;
	mov.u64 %rd0, 0;
	st.global.u32 [%rd0], %r0;
	exit;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("crash")
	lerr := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(1), 0, nil)
	if lerr == nil {
		t.Fatal("trapping kernel did not error")
	}
	if !strings.Contains(lerr.Error(), "crash") {
		t.Fatalf("launch error %q does not name the kernel", lerr)
	}

	if errs := h.results[CBMemcpyHtoD]; len(errs) != 1 || errs[0] == nil {
		t.Fatalf("memcpy error not delivered to After: %v", errs)
	}
	if errs := h.results[CBLaunchKernel]; len(errs) != 1 || errs[0] == nil {
		t.Fatalf("launch error not delivered to After: %v", errs)
	}
	// Successful calls deliver nil.
	if errs := h.results[CBModuleLoadData]; len(errs) != 1 || errs[0] != nil {
		t.Fatalf("module-load result wrong: %v", errs)
	}
}

func TestCtxCreateAfterClose(t *testing.T) {
	a := newAPI(t, sass.Pascal)
	a.Close()
	if _, err := a.CtxCreate(); err == nil {
		t.Fatal("context created on a closed driver")
	}
}

// refuseLoad runs a module load that must be refused with want in its
// error, and checks that the refused module took no code space: the next
// allocation gets the address it would have got before the load.
func refuseLoad(t *testing.T, ctx *Context, want string, load func() (*Module, error)) {
	t.Helper()
	before, _ := ctx.Device().AllocCode(0)
	if _, err := load(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("load not refused with %q: %v", want, err)
	}
	if after, _ := ctx.Device().AllocCode(0); after != before {
		t.Errorf("refused load took code space: next code address %d, was %d", after, before)
	}
}

func TestDuplicateFunctionRejected(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	refuseLoad(t, ctx, "duplicate function", func() (*Module, error) {
		return ctx.ModuleLoadPTX("app", `
.visible .entry same { exit; }
.visible .entry same { exit; }
`)
	})
}

func TestCubinUnresolvedSymbol(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	refuseLoad(t, ctx, "unresolved symbol", func() (*Module, error) {
		return ctx.ModuleLoadPTX("app", `
.visible .entry main { .reg .u32 %r<2>; call ghost, (%r0); exit; }
`)
	})
}

// TestMissingRelatedFunctionRejected: an image whose function names a
// related function the module lacks is refused before it is placed.
func TestMissingRelatedFunctionRejected(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	c, err := Compile("cached", cachedModulePTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	c.Funcs[0].Related = []string{"ghost"}
	img, err := BuildCubin(c, false)
	if err != nil {
		t.Fatal(err)
	}
	refuseLoad(t, ctx, "missing related function", func() (*Module, error) { return ctx.ModuleLoadCubin(img) })
}

// TestOutOfCodeSpaceNamesModule: a module load that finds the code space full
// names the module it was loading and keeps gpu.ErrOutOfCodeSpace in the
// chain.
func TestOutOfCodeSpaceNamesModule(t *testing.T) {
	cfg := gpu.DefaultConfig(sass.Volta)
	cfg.CodeBytes = 4 << 10
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("app%d", i)
		_, err := ctx.ModuleLoadPTX(name, fmt.Sprintf(`
.visible .entry k%d(.param .u64 out)
{
	.reg .u32 %%r<2>;
	.reg .u64 %%rd<2>;
	ld.param.u64 %%rd0, [out];
	mov.u32 %%r0, %d;
	st.global.u32 [%%rd0], %%r0;
	exit;
}
`, i, i))
		if err == nil {
			continue
		}
		if i == 0 {
			t.Fatalf("first load refused: %v", err)
		}
		if !errors.Is(err, gpu.ErrOutOfCodeSpace) {
			t.Fatalf("load %s: %v, want gpu.ErrOutOfCodeSpace", name, err)
		}
		if !strings.Contains(err.Error(), "module "+name+": ") {
			t.Fatalf("load %s: %q does not name the module", name, err)
		}
		return
	}
	t.Fatal("1000 modules loaded into a 4 KiB code space")
}
