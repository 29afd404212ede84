package driver

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/sass"
)

const addOnePTX = `
.visible .entry addone(.param .u64 buf, .param .u32 n)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [buf];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r5, [%rd0];
	add.u32 %r5, %r5, 1;
	st.global.u32 [%rd0], %r5;
	exit;
}
`

type recordingHook struct {
	events []string
}

func (h *recordingHook) Before(cbid CBID, name string, p *CallParams) error {
	h.events = append(h.events, "enter:"+name)
	return nil
}

func (h *recordingHook) After(cbid CBID, name string, p *CallParams, err error) error {
	h.events = append(h.events, "exit:"+name)
	return nil
}

func newAPI(t *testing.T, f sass.Family) *API {
	t.Helper()
	a, err := New(gpu.DefaultConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDriverEndToEndWithHook(t *testing.T) {
	a := newAPI(t, sass.Volta)
	h := &recordingHook{}
	if err := a.Scope0().Bind(h); err != nil {
		t.Fatal(err)
	}
	if err := a.Scope0().Bind(h); err == nil {
		t.Fatal("second interposer injection accepted")
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
	const n = 100
	buf, err := ctx.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], uint32(i))
	}
	if err := ctx.MemcpyHtoD(buf, host); err != nil {
		t.Fatal(err)
	}
	params, err := PackParams(f, buf, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpu.D1(2), gpu.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyDtoH(host, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := binary.LittleEndian.Uint32(host[4*i:]); got != uint32(i+1) {
			t.Fatalf("buf[%d] = %d, want %d", i, got, i+1)
		}
	}
	a.Close()
	a.Close() // idempotent

	joined := strings.Join(h.events, ",")
	wantOrder := []string{
		"enter:cuCtxCreate", "exit:cuCtxCreate",
		"enter:cuModuleLoadData", "exit:cuModuleLoadData",
		"enter:cuModuleGetFunction", "exit:cuModuleGetFunction",
		"enter:cuMemAlloc", "exit:cuMemAlloc",
		"enter:cuMemcpyHtoD", "exit:cuMemcpyHtoD",
		"enter:cuLaunchKernel", "exit:cuLaunchKernel",
		"enter:cuMemcpyDtoH", "exit:cuMemcpyDtoH",
		"enter:appExit", "exit:appExit",
	}
	idx := 0
	for _, e := range h.events {
		if idx < len(wantOrder) && e == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Fatalf("callback sequence missing %q; got %s", wantOrder[idx], joined)
	}
}

// TestClosedAPIRefusesCalls: Close hands the device's execution state to
// the next device, so every driver call after it fails — a launch on a
// context made before Close included — and no hook observes it. The
// device's memory stays readable.
func TestClosedAPIRefusesCalls(t *testing.T) {
	a := newAPI(t, sass.Volta)
	h := &recordingHook{}
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
	buf, err := ctx.MemAlloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	params, err := PackParams(f, buf, uint32(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	seen := len(h.events)
	host := make([]byte, 4*32)
	calls := map[string]func() error{
		"CtxCreate":     func() error { _, err := a.CtxCreate(); return err },
		"ModuleLoadPTX": func() error { _, err := ctx.ModuleLoadPTX("again", addOnePTX); return err },
		"GetFunction":   func() error { _, err := mod.GetFunction("addone"); return err },
		"MemAlloc":      func() error { _, err := ctx.MemAlloc(64); return err },
		"MemFree":       func() error { return ctx.MemFree(buf) },
		"MemcpyHtoD":    func() error { return ctx.MemcpyHtoD(buf, host) },
		"MemcpyDtoH":    func() error { return ctx.MemcpyDtoH(host, buf) },
		"LaunchKernel":  func() error { return ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params) },
	}
	for name, call := range calls {
		if err := call(); err == nil || err.Error() != "driver: closed" {
			t.Errorf("%s after Close: %v, want driver: closed", name, err)
		}
	}
	if len(h.events) != seen {
		t.Errorf("the hook observed calls after Close: %v", h.events[seen:])
	}
	if err := a.Device().Read(buf, host); err != nil || binary.LittleEndian.Uint32(host) != 1 {
		t.Errorf("device memory after Close: %v, first word %d, want 1", err, binary.LittleEndian.Uint32(host))
	}
}

func TestCubinRoundTripAndFamilyCheck(t *testing.T) {
	pm, err := Compile("lib", addOnePTX, sass.Pascal)
	if err != nil {
		t.Fatal(err)
	}
	image, err := BuildCubin(pm, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCubin(image)
	if err != nil {
		t.Fatal(err)
	}
	if back.Family != sass.Pascal || back.Name != "lib" || len(back.Funcs) != 1 {
		t.Fatalf("parsed cubin: %+v", back)
	}
	if back.Funcs[0].Name != "addone" || !back.Funcs[0].Entry {
		t.Fatalf("function: %+v", back.Funcs[0])
	}
	if len(back.Funcs[0].Lines) == 0 {
		t.Fatal("line table lost")
	}

	// Load on the matching family and run.
	a := newAPI(t, sass.Pascal)
	ctx, _ := a.CtxCreate()
	mod, err := ctx.ModuleLoadCubin(image)
	if err != nil {
		t.Fatal(err)
	}
	if !mod.FromCubin {
		t.Fatal("module not marked binary-only")
	}
	f, err := mod.GetFunction("addone")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.MemAlloc(4)
	if err := ctx.MemcpyHtoD(buf, []byte{41, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	params, _ := PackParams(f, buf, uint32(1))
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if err := ctx.MemcpyDtoH(out, buf); err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Fatalf("cubin kernel result = %d", out[0])
	}

	// Family mismatch must be rejected.
	a2 := newAPI(t, sass.Volta)
	ctx2, _ := a2.CtxCreate()
	if _, err := ctx2.ModuleLoadCubin(image); err == nil {
		t.Fatal("cross-family cubin load accepted")
	}

	// Corrupt image.
	if _, err := ParseCubin(image[:10]); err == nil {
		t.Fatal("truncated cubin accepted")
	}
	if _, err := ParseCubin([]byte("ELF?')")); err == nil {
		t.Fatal("non-cubin accepted")
	}
}

func TestStrippedCubinHasNoLines(t *testing.T) {
	pm, err := Compile("lib", addOnePTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	image, err := BuildCubin(pm, true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCubin(image)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Funcs[0].Lines) != 0 {
		t.Fatal("strip did not drop line table")
	}
}

func TestRelatedFunctionsMetadata(t *testing.T) {
	src := `
.visible .entry main(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 1;
	call helper, (%r0), (%r1);
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
	exit;
}
.func helper(.param .u32 v)
{
	.reg .u32 %t<40>;
	ld.param.u32 %t0, [v];
	setret.u32 %t0;
	ret;
}
`
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Related) != 1 || f.Related[0].Name != "helper" {
		t.Fatalf("Related = %+v", f.Related)
	}
	// helper's 40 locals start at R64, so the rollup must dominate.
	if f.MaxRegs() <= f.NumRegs || f.MaxRegs() < 64 {
		t.Fatalf("MaxRegs = %d, NumRegs = %d", f.MaxRegs(), f.NumRegs)
	}
	// Launching the helper directly must be rejected.
	h, err := mod.GetFunction("helper")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(h, gpu.D1(1), gpu.D1(1), 0, nil); err == nil {
		t.Fatal("launch of non-entry accepted")
	}
}

func TestPackParams(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", `
.visible .entry k(.param .u64 p, .param .f32 a, .param .u32 n) { exit; }
`)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("k")
	b, err := PackParams(f, uint64(0x1122334455667788), float32(1.5), uint32(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 16 {
		t.Fatalf("param block %d bytes", len(b))
	}
	if binary.LittleEndian.Uint64(b) != 0x1122334455667788 {
		t.Fatal("pointer misplaced")
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(b[8:])) != 1.5 {
		t.Fatal("float misplaced")
	}
	if binary.LittleEndian.Uint32(b[12:]) != 7 {
		t.Fatal("int misplaced")
	}
	if _, err := PackParams(f, uint64(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := PackParams(f, uint32(1), float32(1), uint32(1)); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := mod.GetFunction("nope"); err == nil {
		t.Fatal("missing function resolved")
	}
}

func TestModuleFunctionOrder(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, _ := a.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", `
.visible .entry b1 { exit; }
.visible .entry a2 { exit; }
.visible .entry c3 { exit; }
`)
	if err != nil {
		t.Fatal(err)
	}
	fs := mod.Functions()
	if len(fs) != 3 || fs[0].Name != "b1" || fs[1].Name != "a2" || fs[2].Name != "c3" {
		t.Fatalf("function order: %v", []string{fs[0].Name, fs[1].Name, fs[2].Name})
	}
}

// TestInterposedCallZeroAlloc pins that an unobserved, untraced driver call
// allocates nothing: the call path's operation closure and the caller-owned
// parameters it fills stay on the stack, and the callbacks' copy is made only
// when a hook is bound.
func TestInterposedCallZeroAlloc(t *testing.T) {
	a := newAPI(t, sass.Volta)
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.MemAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.MemcpyHtoD(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("tracing-off MemcpyHtoD allocates %v objects per call, want 0", allocs)
	}
}

// TestModuleLoadRecordCoversCompile: the module_load record of a PTX module
// spans the load as the caller sees it. Compilation is the larger part of a
// JIT load and runs before the interposed link; a record started at the link
// showed PTX loads as nearly free.
func TestModuleLoadRecordCoversCompile(t *testing.T) {
	var src strings.Builder
	src.WriteString(".visible .entry k(.param .u64 p)\n{\n\t.reg .u32 %r<8>;\n\t.reg .f32 %f<8>;\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&src, "\tmad.lo.u32 %%r%d, %%r%d, %%r%d, %%r%d;\n", i%8, (i+1)%8, (i+3)%8, (i+5)%8)
	}
	src.WriteString("}\n")

	a := newAPI(t, sass.Volta)
	prof := profile.NewCollector(64)
	a.Scope0().SetCollector(prof)
	ctx, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	// The share of the wall time is noisy when the test shares its cores:
	// the best of a few loads decides.
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ctx.ModuleLoadPTX("k", src.String()); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		recs := prof.Records()
		rec := recs[len(recs)-1]
		if rec.Kind != profile.KindModuleLoad || rec.Name != "k" {
			t.Fatalf("last record is %+v, want the load of k", rec)
		}
		best = max(best, float64(rec.Dur)/float64(wall))
	}
	if best < 0.5 {
		t.Fatalf("module_load record covers %.0f%% of the call, want at least half", 100*best)
	}
}
