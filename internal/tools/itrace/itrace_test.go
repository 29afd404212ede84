package itrace

import (
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/emu"
	"nvbitgo/nvbit"
)

const straightPTX = `
.visible .entry straight(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, %laneid;
	add.u32 %r1, %r0, 7;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
	exit;
}
`

const loopPTX = `
.visible .entry looper(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, 3;
L:
	sub.u32 %r0, %r0, 1;
	setp.gt.u32 %p0, %r0, 0;
	@%p0 bra L;
	exit;
}
`

func runTraced(t *testing.T, src, entry string, lanes int, withEmu bool) *Tool {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(1 << 12)
	host := &hostTool{Tool: tool, emulate: withEmu}
	if _, err := nvbit.Attach(api, host); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction(entry)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.MemAlloc(4 * 64)
	params, _ := gpusim.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(lanes), 0, params); err != nil {
		t.Fatal(err)
	}
	return tool
}

// hostTool wraps the tracer and optionally layers WFFT32 emulation on top
// (the paper's combined tracing + emulation experiment).
type hostTool struct {
	*Tool
	emulate bool
}

func (h *hostTool) AtInit(n *nvbit.NVBit) {
	h.Tool.AtInit(n)
	if h.emulate {
		if err := emu.RegisterDeviceFunctions(n); err != nil {
			panic(err)
		}
	}
}

func (h *hostTool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if h.emulate && !exit && cbid == nvbit.CBLaunchKernel && !n.IsInstrumented(p.Launch.Func) {
		h.Tool.AtCUDACall(n, exit, cbid, name, p) // trace instrumentation first
		if _, err := emu.Apply(n, p.Launch.Func); err != nil {
			panic(err)
		}
		return
	}
	h.Tool.AtCUDACall(n, exit, cbid, name, p)
}

func (h *hostTool) AtTerm(n *nvbit.NVBit) { h.Tool.AtTerm(n) }

// warpTrace extracts, in recorded order, the instruction indexes one warp of
// one kernel executed.
func warpTrace(tool *Tool, kernelID, warpID uint32) []uint32 {
	var out []uint32
	for _, r := range tool.Records {
		if r.KernelID == kernelID && r.WarpID == warpID {
			out = append(out, r.InstIdx)
		}
	}
	return out
}

func TestStraightLineTraceIsProgramOrder(t *testing.T) {
	tool := runTraced(t, straightPTX, "straight", 32, false)
	trace := warpTrace(tool, 0, 0)
	// The compiled kernel has one record per static instruction, in order.
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for i, idx := range trace {
		if int(idx) != i {
			t.Fatalf("trace[%d] = instruction %d (want program order)", i, idx)
		}
	}
	// One record per warp-level instruction, full mask.
	for _, r := range tool.Records {
		if r.ExecMask != 0xFFFFFFFF {
			t.Fatalf("exec mask %#x, want all lanes", r.ExecMask)
		}
		if r.WarpID != 0 {
			t.Fatalf("warp id %d, want 0", r.WarpID)
		}
	}
	if tool.KernelName(0) != "straight" {
		t.Fatalf("kernel name %q", tool.KernelName(0))
	}
	if tool.Dropped() != 0 {
		t.Fatal("records dropped")
	}
}

func TestLoopTraceShowsIterations(t *testing.T) {
	tool := runTraced(t, loopPTX, "looper", 32, false)
	trace := warpTrace(tool, 0, 0)
	// looper: MOVI(0); loop body {IADD(1), ISETP(2), BRA(3)} x3; EXIT(4).
	want := []uint32{0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4}
	if len(trace) != len(want) {
		t.Fatalf("trace length %d, want %d: %v", len(trace), len(want), trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %d, want %d (%v)", i, trace[i], want[i], trace)
		}
	}
}

func TestTraceNonexistentInstruction(t *testing.T) {
	// Trace a kernel whose WFFT32 no hardware implements: the emulated
	// instruction appears in the trace exactly once — "trace instruction
	// sets that do not exist".
	src := `
.visible .entry fft(.param .u64 out)
{
	.reg .f32 %f<2>;
	mov.u32 %f0, 1.0;
	mov.u32 %f1, 0.0;
	wfft32.f32 %f0, %f1;
	exit;
}
`
	tool := runTraced(t, src, "fft", 32, true)
	trace := warpTrace(tool, 0, 0)
	if len(trace) != 4 {
		t.Fatalf("trace %v, want 4 records", trace)
	}
	// Instruction 2 is the WFFT32 site; it must be present even though
	// the device would trap executing it natively.
	if trace[2] != 2 {
		t.Fatalf("trace %v: WFFT32 site missing", trace)
	}
}

func TestPartialMaskRecorded(t *testing.T) {
	src := `
.visible .entry masked(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %laneid;
	setp.lt.u32 %p0, %r0, 8;
	@%p0 add.u32 %r1, %r0, 1;
	exit;
}
`
	tool := runTraced(t, src, "masked", 32, false)
	var sawPartial bool
	for _, r := range tool.Records {
		if r.ExecMask == 0x000000FF {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("no record with the 8-lane mask: %+v", tool.Records)
	}
}

func TestStreamingConsumer(t *testing.T) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(1 << 10)
	tool.Keep = false
	var streamed int
	tool.OnRecord = func(Record) { streamed++ }
	if _, err := nvbit.Attach(api, tool); err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", straightPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("straight")
	out, _ := ctx.MemAlloc(4 * 64)
	params, _ := gpusim.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpusim.D1(2), gpusim.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("no records streamed")
	}
	if len(tool.Records) != 0 {
		t.Fatal("Keep=false still accumulated records")
	}
}
