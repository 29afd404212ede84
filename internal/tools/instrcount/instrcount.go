// Package instrcount implements the paper's Listing 1 tool: a dynamic
// thread-level instruction counter. Every instruction of every launched
// kernel is instrumented with a device function that atomically bumps a
// counter once per active thread.
//
// Two counters are maintained: one for kernels from application modules and
// one for kernels from binary-only library modules (the cuBLAS/cuDNN
// analogs). Their ratio is the "fraction of executed instructions inside
// precompiled libraries" statistic of Section 6.1 (74–96%, average 88% on
// the paper's ML workloads).
package instrcount

import (
	"fmt"

	"nvbitgo/nvbit"
)

const toolPTX = `
.toolfunc instrcount_tally(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
.toolfunc instrcount_bbtally(.param .u32 cnt, .param .u64 ctr)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	ld.param.u32 %r0, [cnt];
	ld.param.u64 %rd0, [ctr];
	cvt.u64.u32 %rd2, %r0;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

// Tool counts executed thread-level instructions.
type Tool struct {
	// PerBasicBlock switches to the optimized block-level counting
	// sketched in Section 3 (one injection per basic block, counting the
	// block size) instead of per-instruction injection. Falls back to
	// per-instruction counting for functions with indirect control flow.
	PerBasicBlock bool

	appCtr uint64
	libCtr uint64
	ready  bool
}

// New returns a fresh instruction-count tool.
func New() *Tool { return &Tool{} }

// AtInit registers the tool device function.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(toolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.appCtr, err = n.Malloc(8); err != nil {
		panic(err)
	}
	if t.libCtr, err = n.Malloc(8); err != nil {
		panic(err)
	}
	t.ready = true
}

// AtTerm implements the Tool interface.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments each kernel the first time it is launched.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	ctr := t.appCtr
	if f.Module.FromCubin {
		ctr = t.libCtr
	}
	if t.PerBasicBlock {
		if blocks, err := n.GetBasicBlocks(f); err == nil {
			const bbTool = "instrcount_bbtally"
			for _, bb := range blocks {
				n.InsertCallArgs(bb.Instrs[0], bbTool, nvbit.IPointBefore,
					nvbit.ArgConst32(uint32(len(bb.Instrs))), nvbit.ArgDevPtr(ctr))
			}
			return
		}
		// Indirect control flow: fall back to the flat view below.
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(fmt.Sprintf("instrcount: %v", err))
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "instrcount_tally", nvbit.IPointBefore, nvbit.ArgDevPtr(ctr))
	}
}

// AppInstrs returns executed thread-level instructions in application
// (non-library) kernels.
func (t *Tool) AppInstrs(n *nvbit.NVBit) uint64 {
	v, err := n.ReadU64(t.appCtr)
	if err != nil {
		panic(err)
	}
	return v
}

// LibInstrs returns executed thread-level instructions in binary-only
// library kernels.
func (t *Tool) LibInstrs(n *nvbit.NVBit) uint64 {
	v, err := n.ReadU64(t.libCtr)
	if err != nil {
		panic(err)
	}
	return v
}

// Total returns all counted thread-level instructions.
func (t *Tool) Total(n *nvbit.NVBit) uint64 { return t.AppInstrs(n) + t.LibInstrs(n) }

// LibraryFraction returns the fraction of executed instructions inside
// precompiled libraries (the Section 6.1 statistic).
func (t *Tool) LibraryFraction(n *nvbit.NVBit) float64 {
	app, lib := t.AppInstrs(n), t.LibInstrs(n)
	if app+lib == 0 {
		return 0
	}
	return float64(lib) / float64(app+lib)
}

var _ nvbit.Tool = (*Tool)(nil)
