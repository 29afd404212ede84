package core

import (
	"strings"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// multiTool registers two separate tool sources (two "tool .cu files") and
// injects functions from both at the same site; they must execute in
// insertion order and coexist in the injection-function map.
type multiTool struct {
	ctrA, ctrB uint64
	onLaunch   func(n *NVBit, p *driver.CallParams)
}

const srcA = `
.toolfunc bump_a(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

const srcB = `
.toolfunc bump_b(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 2;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

func (t *multiTool) AtInit(n *NVBit) {
	if err := n.RegisterToolPTX(srcA); err != nil {
		panic(err)
	}
	if err := n.RegisterToolPTX(srcB); err != nil {
		panic(err)
	}
	var err error
	if t.ctrA, err = n.Malloc(8); err != nil {
		panic(err)
	}
	if t.ctrB, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *multiTool) AtTerm(n *NVBit) {}

func (t *multiTool) AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams) {
	if !exit && cbid == driver.CBLaunchKernel && t.onLaunch != nil {
		t.onLaunch(n, p)
	}
}

func TestMultipleToolSources(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	tool := &multiTool{}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		// Inject functions from both sources at the same sites — the
		// paper's "multiple function injections to the same location".
		for _, i := range insts {
			n.InsertCallArgs(i, "bump_a", IPointBefore, ArgDevPtr(tool.ctrA))
			n.InsertCallArgs(i, "bump_b", IPointBefore, ArgDevPtr(tool.ctrB))
		}
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app.ptx", workPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("work")
	data, _ := ctx.MemAlloc(4 * 64)
	params, _ := driver.PackParams(f, data, uint32(64))
	if err := ctx.LaunchKernel(f, gpu.D1(2), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	a, _ := nv.ReadU64(tool.ctrA)
	b, _ := nv.ReadU64(tool.ctrB)
	if a == 0 || b != 2*a {
		t.Fatalf("ctrA=%d ctrB=%d: both sources must fire at every site (B bumps by 2)", a, b)
	}
}

// TestRegisterAfterLoadRejected: tool sources must be registered before the
// loader compiles them (first instrumentation use).
func TestRegisterAfterLoadRejected(t *testing.T) {
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	err := env.nv.RegisterToolPTX(srcA)
	if err == nil || !strings.Contains(err.Error(), "already loaded") {
		t.Fatalf("late registration not rejected: %v", err)
	}
}
