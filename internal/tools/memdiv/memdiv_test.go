package memdiv

import (
	"fmt"
	"math"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

// stridePTX loads data[gid*stride/4] so the warp's 32 accesses spread over a
// controllable number of 128-byte cache lines.
const stridePTX = `
.visible .entry stride(.param .u64 data, .param .u32 stride)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	mov.u32 %r0, %tid.x;
	ld.param.u32 %r1, [stride];
	mul.lo.u32 %r2, %r0, %r1;
	ld.param.u64 %rd0, [data];
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r3, [%rd0];
	st.global.u32 [%rd0], %r3;
	exit;
}
`

func runStride(t *testing.T, strideBytes uint32) (*Tool, *nvbit.NVBit) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", stridePTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("stride")
	if err != nil {
		t.Fatal(err)
	}
	data, err := ctx.MemAlloc(uint64(32 * strideBytes))
	if err != nil {
		t.Fatal(err)
	}
	params, err := gpusim.PackParams(f, data, strideBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	return tool, nv
}

func TestDivergenceByStride(t *testing.T) {
	cases := []struct {
		strideBytes uint32
		wantLines   float64
	}{
		{4, 1},    // fully coalesced: one 128B line per warp access
		{8, 2},    // 256B span
		{64, 16},  // 2 KiB span
		{128, 32}, // worst case: one line per lane
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("stride%d", c.strideBytes), func(t *testing.T) {
			tool, nv := runStride(t, c.strideBytes)
			// Kernel has one load and one store per warp = 2 warp-level
			// global memory instructions.
			if m := tool.memInstrs(nv); m != 2 {
				t.Fatalf("warp-level memory instructions = %d, want 2", m)
			}
			got := tool.AvgLinesPerMemInstr(nv)
			if math.Abs(got-c.wantLines) > 0.01 {
				t.Fatalf("avg lines per memory instruction = %v, want %v", got, c.wantLines)
			}
		})
	}
}

func TestGroundTruthAgainstSimulator(t *testing.T) {
	// The tool's unique-line measurement must match the simulator's own
	// coalescing statistics (GlobalLines / GlobalAccesses) for the
	// uninstrumented app, measured on a clean run.
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", stridePTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("stride")
	data, _ := ctx.MemAlloc(32 * 64)
	params, _ := gpusim.PackParams(f, data, uint32(64))
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	st := api.Device().Stats()
	simAvg := float64(st.GlobalLines) / float64(st.GlobalAccesses)

	tool, nv := runStride(t, 64)
	toolAvg := tool.AvgLinesPerMemInstr(nv)
	if math.Abs(simAvg-toolAvg) > 0.05 {
		t.Fatalf("tool average %v disagrees with simulator coalescing average %v", toolAvg, simAvg)
	}
}

func TestPredicatedOffLanesExcluded(t *testing.T) {
	// Only lanes 0..7 execute the load; they all hit one line, so the
	// average must be 1 line counted over 1 memory instruction — the
	// predicated-off lanes return immediately (Listing 8 line 9).
	src := `
.visible .entry pred(.param .u64 data)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %tid.x;
	setp.lt.u32 %p0, %r0, 8;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	@%p0 ld.global.u32 %r1, [%rd0];
	exit;
}
`
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("pred")
	data, _ := ctx.MemAlloc(4 * 32)
	params, _ := gpusim.PackParams(f, data)
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	if m := tool.memInstrs(nv); m != 1 {
		t.Fatalf("memory instructions = %d, want 1", m)
	}
	if got := tool.AvgLinesPerMemInstr(nv); math.Abs(got-1) > 0.01 {
		t.Fatalf("avg lines = %v, want 1", got)
	}
}
