package memcheck

import (
	"strings"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// strideKernel: each thread loads and stores data[tid] (4-byte elements).
const strideKernel = `
.visible .entry stride(.param .u64 data)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	mov.u32 %r4, %ctaid.x;
	mov.u32 %r5, %ntid.x;
	mov.u32 %r6, %tid.x;
	mad.lo.u32 %r0, %r4, %r5, %r6;
	shl.b32 %r1, %r0, 2;
	ld.param.u64 %rd0, [data];
	cvt.u64.u32 %rd2, %r1;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r3, [%rd0];
	st.global.u32 [%rd0], %r3;
	exit;
}
`

// checkEnv attaches a fresh memcheck tool to a fresh device and loads the
// stride kernel.
func checkEnv(t *testing.T, opts ...nvbit.Option) (*Tool, *gpusim.Context, *gpusim.Function) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(1 << 16)
	if _, err := nvbit.Attach(api, tool, opts...); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", strideKernel)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("stride")
	if err != nil {
		t.Fatal(err)
	}
	return tool, ctx, f
}

func launchStride(t *testing.T, ctx *gpusim.Context, f *gpusim.Function, data uint64, threads int) {
	t.Helper()
	params, err := gpusim.PackParams(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpusim.D1((threads+31)/32), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
}

// TestCleanRun: accesses wholly inside a live allocation report nothing.
func TestCleanRun(t *testing.T) {
	tool, ctx, f := checkEnv(t)
	data, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	launchStride(t, ctx, f, data, 64)
	if tool.TotalViolations != 0 {
		t.Fatalf("clean run reported %d violations: %+v", tool.TotalViolations, tool.Violations)
	}
	// 64 threads x (load + store), one record per lane per site.
	if tool.Checked != 128 {
		t.Fatalf("checked = %d, want 128", tool.Checked)
	}
	if tool.Dropped() != 0 {
		t.Fatalf("dropped = %d", tool.Dropped())
	}
}

// TestOutOfAllocation: threads past the end of the buffer stay inside the
// device heap (so the hardware cannot trap them) but outside every live
// allocation — exactly what memcheck exists to catch.
func TestOutOfAllocation(t *testing.T) {
	tool, ctx, f := checkEnv(t)
	// 256 bytes = 64 elements; launching 96 threads overruns by 32 lanes.
	// The buffer is the newest allocation, so the overrun lands in the
	// allocator's free region beyond the heap frontier.
	data, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	launchStride(t, ctx, f, data, 96)
	// 32 overrunning lanes x (load + store).
	if tool.TotalViolations != 64 {
		t.Fatalf("violations = %d, want 64", tool.TotalViolations)
	}
	v := tool.Violations[0]
	if v.Kind != OutOfAllocation {
		t.Fatalf("kind = %v", v.Kind)
	}
	if v.Kernel != "stride" || v.SASS == "" || v.Width != 4 {
		t.Fatalf("provenance: %+v", v)
	}
	if v.Addr < data+256 || v.Addr >= data+96*4 {
		t.Fatalf("flagged address %#x outside the overrun range", v.Addr)
	}
	// The nearest live allocation below the overrun is the buffer itself.
	if v.Span.Base != data {
		t.Fatalf("span = %+v, want base %#x", v.Span, data)
	}
	// The first violating site is the load; its twin store is also flagged.
	var stores, loads int
	for _, v := range tool.Violations {
		if v.IsStore {
			stores++
		} else {
			loads++
		}
	}
	if loads != 32 || stores != 32 {
		t.Fatalf("loads/stores flagged = %d/%d, want 32/32", loads, stores)
	}
	if !strings.Contains(v.String(), "out-of-allocation") || !strings.Contains(v.String(), "stride") {
		t.Fatalf("report line: %s", v)
	}
}

// TestUseAfterFree: accesses through a stale pointer into a freed (and not
// recycled) allocation are classified as use-after-free.
func TestUseAfterFree(t *testing.T) {
	tool, ctx, f := checkEnv(t)
	keep, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemFree(stale); err != nil {
		t.Fatal(err)
	}
	launchStride(t, ctx, f, stale, 32)
	if tool.TotalViolations != 64 {
		t.Fatalf("violations = %d, want 64 (32 lanes x load+store)", tool.TotalViolations)
	}
	v := tool.Violations[0]
	if v.Kind != UseAfterFree {
		t.Fatalf("kind = %v, want use-after-free: %+v", v.Kind, v)
	}
	if v.Span.Base != stale || v.Span.Size != 256 {
		t.Fatalf("freed span = %+v", v.Span)
	}
	if !strings.Contains(v.String(), "use-after-free") || !strings.Contains(v.String(), "freed span") {
		t.Fatalf("report line: %s", v)
	}
	_ = keep

	// Recycling the span flips the classification back to live: a fresh
	// allocation reuses the freed bytes, and the same access is clean.
	again, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if again != stale {
		t.Skipf("allocator did not recycle the span (%#x vs %#x)", again, stale)
	}
	before := tool.TotalViolations
	launchStride(t, ctx, f, again, 32)
	if tool.TotalViolations != before {
		t.Fatalf("recycled span still reported: %d new violations", tool.TotalViolations-before)
	}
}

// TestViolationCap: the detailed list is bounded while the total keeps
// counting.
func TestViolationCap(t *testing.T) {
	tool, ctx, f := checkEnv(t)
	tool.MaxViolations = 8
	data, err := ctx.MemAlloc(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	launchStride(t, ctx, f, data, 256)
	if len(tool.Violations) != 8 {
		t.Fatalf("detailed violations = %d, want the cap of 8", len(tool.Violations))
	}
	// (256-64) lanes x 2 sites.
	if tool.TotalViolations != 384 {
		t.Fatalf("total = %d, want 384", tool.TotalViolations)
	}
	var sb strings.Builder
	tool.Report(&sb)
	if !strings.Contains(sb.String(), "and 376 more") {
		t.Fatalf("report: %s", sb.String())
	}
}

// TestReportSchedulerInvariant: an overrun issued by CTAs on every SM is
// reported identically — the listed violations and their order included —
// under both schedulers, because records reach the checker in the channel's
// ascending-SM delivery order, not in the order SM workers happened to run.
func TestReportSchedulerInvariant(t *testing.T) {
	report := func(sched gpusim.SchedulerKind) string {
		tool, ctx, f := checkEnv(t, nvbit.WithScheduler(sched))
		tool.MaxViolations = 1 << 14 // list every violation, from every SM
		data, err := ctx.MemAlloc(64 * 4)
		if err != nil {
			t.Fatal(err)
		}
		// 128 CTAs of one warp, round-robin over the SMs; all but the
		// first two overrun the 64-element buffer.
		launchStride(t, ctx, f, data, 4096)
		if want := uint64(4096-64) * 2; tool.TotalViolations != want || len(tool.Violations) != int(want) {
			t.Fatalf("%d violations (%d listed), want %d", tool.TotalViolations, len(tool.Violations), want)
		}
		var sb strings.Builder
		tool.Report(&sb)
		return sb.String()
	}
	seq, par := report(gpusim.SchedulerSequential), report(gpusim.SchedulerParallelSM)
	if seq != par {
		a, b := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("reports diverge at line %d:\nsequential: %s\nparallel:   %s", i, a[i], b[min(i, len(b)-1)])
			}
		}
		t.Fatal("parallel report is longer than the sequential one")
	}
}

// TestCleanWorkload: a real benchmark run reports zero violations — the
// checker must not false-positive on well-behaved code.
func TestCleanWorkload(t *testing.T) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(1 << 20)
	if _, err := nvbit.Attach(api, tool); err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	var bench *specaccel.Benchmark
	for _, b := range specaccel.Benchmarks() {
		if b.Name == "ostencil" {
			bench = b
		}
	}
	if bench == nil {
		t.Fatal("ostencil benchmark missing")
	}
	if err := bench.Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if tool.TotalViolations != 0 {
		t.Fatalf("clean workload reported %d violations; first: %+v", tool.TotalViolations, tool.Violations[0])
	}
	if tool.Checked == 0 {
		t.Fatal("workload produced no checked accesses — instrumentation missing")
	}
}
