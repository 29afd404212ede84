// Package memdiv implements the paper's Listing 8 tool: memory access
// address divergence. Every warp-level global memory instruction is
// instrumented with a device function that computes, across the executing
// lanes, how many unique cache lines the access touches; the tool reports
// the average number of cache lines requested per warp-level memory
// instruction (Figure 6's metric).
package memdiv

import (
	"fmt"
	"math"

	"nvbitgo/nvbit"
)

// Log2CacheLine is the cache-line granularity used to bucket addresses
// (128-byte lines, matching the simulated device).
const Log2CacheLine = 7

const toolPTX = `
.toolfunc memdiv_ifunc(.param .u32 pred, .param .u64 base, .param .u32 off, .param .u64 ctrs)
{
	.reg .u32 %r<12>;
	.reg .f32 %f<4>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	// Return if the instrumented instruction is predicated off for this
	// lane (Listing 8, line 9).
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	// Reconstruct the access address (base register pair + immediate).
	ld.param.u64 %rd0, [base];
	ld.param.u32 %r1, [off];
	cvt.u64.u32 %rd2, %r1;
	add.u64 %rd0, %rd0, %rd2;
	// Cache line id: device memory is < 4 GiB, the low word suffices.
	cvt.u32.u64 %r2, %rd0;
	shr.b32 %r2, %r2, 7;
	// How many executing lanes touch the same line?
	match.any.b32 %r3, %r2;
	popc.b32 %r4, %r3;
	// Leader election: the lowest executing lane bumps the warp-level
	// memory instruction counter once.
	setp.eq.u32 %p1, %r0, %r0;
	vote.ballot.b32 %r5, %p1;
	not.b32 %r6, %r5;
	add.u32 %r6, %r6, 1;
	and.b32 %r6, %r5, %r6;
	mov.u32 %r7, %laneid;
	mov.u32 %r8, 1;
	shl.b32 %r8, %r8, %r7;
	setp.eq.u32 %p2, %r6, %r8;
	ld.param.u64 %rd4, [ctrs];
	mov.u64 %rd6, 1;
	@%p2 red.global.add.u64 [%rd4+8], %rd6;
	// Each lane contributes 1/cnt to the unique-line accumulator, so
	// lanes sharing a line sum to exactly one (Listing 8, line 29).
	cvt.f32.u32 %f0, %r4;
	rcp.approx.f32 %f1, %f0;
	red.global.add.f32 [%rd4], %f1;
	ret;
}
`

// Tool measures warp-level global memory address divergence.
type Tool struct {
	// SkipLibraries reproduces the compiler-based tool's blindness to
	// binary-only library kernels (the "without library instrumentation"
	// series of Figure 6).
	SkipLibraries bool

	ctrs uint64 // [0] f32 unique-line sum, [8] u64 warp-level mem instrs
}

// New returns a fresh memory-divergence tool.
func New() *Tool { return &Tool{} }

// AtInit registers the device function and allocates the counters.
func (t *Tool) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(toolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.ctrs, err = n.Malloc(16); err != nil {
		panic(err)
	}
}

// AtTerm implements the Tool interface.
func (t *Tool) AtTerm(n *nvbit.NVBit) {}

// AtCUDACall instruments global memory instructions on first launch.
func (t *Tool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	if f.Module.FromCubin && t.SkipLibraries {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(fmt.Sprintf("memdiv: %v", err))
	}
	for _, i := range insts {
		if i.GetMemOpSpace() != nvbit.MemGlobal {
			continue
		}
		mref, ok := i.MemOperand()
		if !ok {
			continue
		}
		n.InsertCallArgs(i, "memdiv_ifunc", nvbit.IPointBefore,
			nvbit.ArgSitePred(),
			nvbit.ArgReg64(int(mref.Base)),
			nvbit.ArgConst32(uint32(mref.Offset)),
			nvbit.ArgDevPtr(t.ctrs))
	}
}

// memInstrs returns the executed warp-level global memory instructions.
func (t *Tool) memInstrs(n *nvbit.NVBit) uint64 {
	v, err := n.ReadU64(t.ctrs + 8)
	if err != nil {
		panic(err)
	}
	return v
}

// AvgLinesPerMemInstr returns the average number of unique cache lines
// requested per warp-level global memory instruction — the Figure 6 metric.
func (t *Tool) AvgLinesPerMemInstr(n *nvbit.NVBit) float64 {
	m := t.memInstrs(n)
	if m == 0 {
		return 0
	}
	bits, err := n.ReadU32(t.ctrs) // the unique lines, summed as a float32
	if err != nil {
		panic(err)
	}
	return float64(math.Float32frombits(bits)) / float64(m)
}

var _ nvbit.Tool = (*Tool)(nil)
