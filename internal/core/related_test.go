package core

import (
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// callerPTX has a kernel that calls a device function; tools must use
// nvbit_get_related_funcs to cover the callee (paper Section 4).
const callerPTX = `
.visible .entry main(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 6;
	call square, (%r0), (%r1);
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
	exit;
}
.func square(.param .u32 v)
{
	.reg .u32 %t<2>;
	ld.param.u32 %t0, [v];
	mul.lo.u32 %t1, %t0, %t0;
	setret.u32 %t1;
	ret;
}
`

func TestInstrumentRelatedFunctions(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	var ctrKernel, ctrAll uint64
	tool := &testTool{}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctrKernel, _ = nv.Malloc(8)
	ctrAll, _ = nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		// Kernel-only counter.
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctrKernel))
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctrAll))
		}
		// Kernel + related functions counter: the Listing-1 pattern
		// extended over nvbit_get_related_funcs.
		for _, rel := range n.GetRelatedFuncs(f) {
			if n.IsInstrumented(rel) {
				continue
			}
			rinsts, err := n.GetInstrs(rel)
			if err != nil {
				panic(err)
			}
			for _, i := range rinsts {
				n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctrAll))
			}
			// Related functions are finalized together with the kernel
			// at the exit of the driver callback.
		}
	}

	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", callerPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("main")
	out, _ := ctx.MemAlloc(4)
	params, _ := driver.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}

	// Correctness under nested instrumentation (trampoline inside a
	// device function called from an instrumented kernel).
	v, err := nv.ReadU32(out)
	if err != nil {
		t.Fatal(err)
	}
	if v != 36 {
		t.Fatalf("result = %d, want 36", v)
	}

	kOnly, _ := nv.ReadU64(ctrKernel)
	all, _ := nv.ReadU64(ctrAll)
	if kOnly == 0 {
		t.Fatal("kernel instructions not counted")
	}
	// square has 4 instructions (MOV arg, IMUL, MOV ret, RET) executed by
	// 32 threads.
	relInstrs := all - kOnly
	if relInstrs == 0 {
		t.Fatal("related function instructions not counted")
	}
	if relInstrs%32 != 0 {
		t.Fatalf("related count %d not a multiple of the warp width", relInstrs)
	}
	if relInstrs < 3*32 || relInstrs > 8*32 {
		t.Fatalf("related count %d implausible for a 4-instruction callee", relInstrs)
	}
}
