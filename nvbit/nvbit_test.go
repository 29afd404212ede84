package nvbit_test

import (
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

const appPTX = `
.visible .entry twiddle(.param .u64 buf)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	mov.u32 %r0, %laneid;
	ld.param.u64 %rd0, [buf];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r1, [%rd0];
	add.u32 %r1, %r1, %r0;
	st.global.u32 [%rd0], %r1;
	exit;
}
`

const toolPTX = `
.toolfunc bump(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

// lifecycleTool checks the full tool lifecycle through the public facade.
type lifecycleTool struct {
	ctr      uint64
	initSeen bool
	termSeen bool
	launches int
	memOps   int
}

func (t *lifecycleTool) AtInit(n *nvbit.NVBit) {
	t.initSeen = true
	if err := n.RegisterToolPTX(toolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.ctr, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *lifecycleTool) AtTerm(n *nvbit.NVBit) { t.termSeen = true }

func (t *lifecycleTool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	t.launches++
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	for _, i := range insts {
		if i.GetMemOpSpace() == nvbit.MemGlobal {
			t.memOps++
			n.InsertCallArgs(i, "bump", nvbit.IPointBefore, nvbit.ArgDevPtr(t.ctr))
		}
	}
}

func TestToolLifecycleThroughFacade(t *testing.T) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := &lifecycleTool{}
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	if !tool.initSeen {
		t.Fatal("AtInit not fired on Attach")
	}
	if _, err := nvbit.Attach(api, tool); err == nil {
		t.Fatal("second tool injection accepted")
	}

	ctx, _ := api.CtxCreate()
	if nv.HAL() == nil || nv.HAL().ABIVersion != 2 {
		t.Fatal("HAL not initialized at context creation")
	}
	mod, err := ctx.ModuleLoadPTX("app", appPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("twiddle")
	buf, _ := ctx.MemAlloc(4 * 32)
	params, _ := gpusim.PackParams(f, buf)
	for i := 0; i < 3; i++ {
		if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
			t.Fatal(err)
		}
	}
	api.Close()

	if !tool.termSeen {
		t.Fatal("AtTerm not fired on Close")
	}
	if tool.launches != 3 || tool.memOps != 2 {
		t.Fatalf("launches=%d memOps=%d", tool.launches, tool.memOps)
	}
	count, err := nv.ReadU64(tool.ctr)
	if err != nil {
		t.Fatal(err)
	}
	// 2 global memory instructions x 32 lanes x 3 launches.
	if count != 2*32*3 {
		t.Fatalf("counted %d, want %d", count, 2*32*3)
	}
	st := nv.JITStats()
	if st.FunctionsLifted != 1 || st.TrampolinesEmitted != 2 {
		t.Fatalf("jit stats: %+v", st)
	}
}

// liveRegsTool samples the public liveness introspection from inside the
// launch callback.
type liveRegsTool struct {
	sampled int
	exact   int
}

func (t *liveRegsTool) AtInit(n *nvbit.NVBit) {}
func (t *liveRegsTool) AtTerm(*nvbit.NVBit)   {}
func (t *liveRegsTool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	full := nvbit.RegSet{}
	for _, i := range insts {
		rs, conservative := n.LiveRegs(i)
		t.sampled++
		if !conservative {
			t.exact++
		}
		if rs.Count() > f.MaxRegs() {
			panic("live set exceeds the function's register requirement")
		}
		full = full.Union(rs)
	}
	if full.Empty() {
		panic("no live registers anywhere")
	}
}

// TestLiveRegsThroughFacade: the per-site liveness introspection is part of
// the public API, and on a straight-line kernel it is exact, not the
// conservative fallback.
func TestLiveRegsThroughFacade(t *testing.T) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := &liveRegsTool{}
	_, err = nvbit.Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", appPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("twiddle")
	buf, _ := ctx.MemAlloc(4 * 32)
	params, _ := gpusim.PackParams(f, buf)
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	if tool.sampled == 0 || tool.exact != tool.sampled {
		t.Fatalf("sampled %d sites, %d exact — straight-line code must not hit the conservative fallback", tool.sampled, tool.exact)
	}
}
