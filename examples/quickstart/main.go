// Quickstart: the paper's Listing 1 — a minimal NVBit tool that counts every
// thread-level instruction a CUDA application executes, attached to a saxpy
// application running on the simulated GPU stack.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

// The application: plain saxpy, shipped as embedded PTX and JIT-compiled by
// the driver — the tool never sees its source.
const saxpyPTX = `
.visible .entry saxpy(.param .u64 x, .param .u64 y, .param .f32 a, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [x];
	ld.param.u64 %rd2, [y];
	mul.wide.u32 %rd4, %r3, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd2];
	ld.param.f32 %f2, [a];
	fma.rn.f32 %f1, %f2, %f0, %f1;
	st.global.f32 [%rd2], %f1;
	exit;
}
`

// The tool's device function (the .cu file of Listing 1): one atomic bump
// per thread, compiled by the tool chain and injected before every
// instruction at run time.
const countInstrsPTX = `
.toolfunc count_instrs(.param .u64 counter)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [counter];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

// instrCounter is the host side of the tool (Listing 1's callbacks).
type instrCounter struct {
	counter uint64
}

func (t *instrCounter) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(countInstrsPTX); err != nil {
		log.Fatal(err)
	}
	var err error
	if t.counter, err = n.Malloc(8); err != nil {
		log.Fatal(err)
	}
}

func (t *instrCounter) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return // already instrumented (Listing 1, line 28)
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		log.Fatal(err)
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "count_instrs", nvbit.IPointBefore, nvbit.ArgDevPtr(t.counter))
	}
	fmt.Printf("[tool] instrumented %s: %d instructions\n", f.Name, len(insts))
}

func (t *instrCounter) AtTerm(n *nvbit.NVBit) {
	total, err := n.ReadU64(t.counter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[tool] total thread-level instructions: %d\n", total)
}

func main() {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		log.Fatal(err)
	}
	// The LD_PRELOAD moment: inject the tool into the application. Attach
	// options configure the run — here, CUPTI-style activity tracing (see
	// docs/observability.md).
	nv, err := nvbit.Attach(api, &instrCounter{}, nvbit.WithTracing(0))
	if err != nil {
		log.Fatal(err)
	}

	// From here on: an ordinary CUDA application, unaware of the tool.
	ctx, err := api.CtxCreate()
	if err != nil {
		log.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("saxpy", saxpyPTX)
	if err != nil {
		log.Fatal(err)
	}
	f, err := mod.GetFunction("saxpy")
	if err != nil {
		log.Fatal(err)
	}
	const n = 4096
	x, _ := ctx.MemAlloc(4 * n)
	y, _ := ctx.MemAlloc(4 * n)
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	if err := ctx.MemcpyHtoD(x, host); err != nil {
		log.Fatal(err)
	}
	if err := ctx.MemcpyHtoD(y, host); err != nil {
		log.Fatal(err)
	}
	params, err := gpusim.PackParams(f, x, y, float32(2.0), uint32(n))
	if err != nil {
		log.Fatal(err)
	}
	for launch := 0; launch < 4; launch++ {
		if err := ctx.LaunchKernel(f, gpusim.D1(n/256), gpusim.D1(256), 0, params); err != nil {
			log.Fatal(err)
		}
	}
	if err := ctx.MemcpyDtoH(host, y); err != nil {
		log.Fatal(err)
	}
	got := math.Float32frombits(binary.LittleEndian.Uint32(host[4*100:]))
	fmt.Printf("[app] y[100] = %v (want %v)\n", got, float32(100)*(1+2+2+2+2))
	api.Close() // fires the tool's AtTerm

	// The activity timeline collected by WithTracing: per-kernel metrics
	// (Figures 7–8 shape) and, if desired, a chrome://tracing export via
	// nvbit.WriteChromeTrace.
	fmt.Print(nvbit.FormatMetrics(nv.Profiler().Metrics()))
}
