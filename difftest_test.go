package main_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// The differential instrumentation suite: liveness-minimal save sets are a
// pure performance optimization, so every in-tree tool must produce output
// byte-identical to the full-save ablation (InjectFullSave), under both schedulers.
// Tools and reports are the registry's — the ones nvbit-run and nvbitd serve —
// so the comparison covers what a user actually sees.

// diffTools names the tools the differential runs cover. They are built with
// Block backpressure: drops under load (e.g. -race) would make a channel
// tool's stream — and thus its report — timing-dependent.
var diffTools = []string{"instrcount", "ophisto", "itrace", "memtrace", "memcheck", "cachesim"}

// diffBenchmark returns the workload the differential runs execute.
func diffBenchmark(t *testing.T) *specaccel.Benchmark {
	t.Helper()
	for _, b := range specaccel.Benchmarks() {
		if b.Name == "cg" {
			return b
		}
	}
	t.Fatal("specaccel benchmark cg not found")
	return nil
}

// diffRun executes the workload under one tool/injection-mode/scheduler
// triple and returns the tool's report output plus the run's JIT stats.
// Extra attach options (e.g. WithJITCache) apply on top.
func diffRun(t *testing.T, toolName string, mode nvbit.InjectionMode, sched gpusim.SchedulerKind, extra ...nvbit.Option) (string, nvbit.JITStats) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	var o registry.Options
	if slices.Contains(registry.ReadsOf(toolName), "policy") {
		o.Policy = "block"
	}
	inst, err := registry.New(toolName, o)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]nvbit.Option{
		nvbit.WithScheduler(sched), nvbit.WithInjectionMode(mode),
	}, extra...)
	nv, err := nvbit.Attach(api, inst.Tool, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := diffBenchmark(t).Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	api.Close() // fires AtTerm: channel tools drain before reporting
	var buf bytes.Buffer
	if _, err := inst.Report(&buf, nv); err != nil {
		t.Fatal(err)
	}

	js := nv.JITStats()
	if mode == nvbit.InjectInline {
		// Inline mode may splice any mix of sites; the rest fall back to
		// trampolines. Zero of both means nothing was instrumented.
		if js.TrampolinesEmitted+js.InlinedSites == 0 {
			t.Fatalf("%s: no instrumentation sites generated", toolName)
		}
	} else if js.TrampolinesEmitted == 0 {
		t.Fatalf("%s: no trampolines emitted", toolName)
	}
	return buf.String(), js
}

// quickCounter reproduces the quickstart example's tool (Listing 1): one
// atomic bump per thread-level instruction.
type quickCounter struct {
	counter uint64
}

const quickToolPTX = `
.toolfunc count_instrs(.param .u64 counter)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [counter];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

func (t *quickCounter) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(quickToolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.counter, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *quickCounter) AtTerm(*nvbit.NVBit) {}

func (t *quickCounter) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "count_instrs", nvbit.IPointBefore, nvbit.ArgDevPtr(t.counter))
	}
}

const quickSaxpyPTX = `
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

// runQuickstart attaches the instruction counter to the quickstart saxpy
// and returns the counted instructions, the mean saved registers per
// trampoline (a visit, which saves once for the run of sites it serves), and
// the kernel's register high-water mark.
func runQuickstart(t *testing.T, fullSave bool) (count uint64, avgSaved float64, maxRegs int) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := &quickCounter{}
	mode := nvbit.InjectTrampoline
	if fullSave {
		mode = nvbit.InjectFullSave
	}
	nv, err := nvbit.Attach(api, tool, nvbit.WithInjectionMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("saxpy", quickSaxpyPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	x, _ := ctx.MemAlloc(4 * n)
	y, _ := ctx.MemAlloc(4 * n)
	params, err := gpusim.PackParams(f, x, y, float32(2.0), uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpusim.D1(n/256), gpusim.D1(256), 0, params); err != nil {
		t.Fatal(err)
	}
	count, err = nv.ReadU64(tool.counter)
	if err != nil {
		t.Fatal(err)
	}
	js := nv.JITStats()
	if js.Visits == 0 || js.Visits >= js.TrampolinesEmitted {
		t.Fatalf("%d trampolines serve %d sites, want the counter's calls coalesced", js.Visits, js.TrampolinesEmitted)
	}
	return count, float64(js.SavedRegs) / float64(js.Visits), f.MaxRegs()
}

// TestQuickstartSaveSetBelowMaxRegs is the paper-facing acceptance check:
// instrumenting the quickstart saxpy with the instruction counter, the mean
// saved-register count per trampoline is strictly below the function's
// register high-water mark, with an identical instruction count to the
// full-save ablation.
func TestQuickstartSaveSetBelowMaxRegs(t *testing.T) {
	minCount, avgMin, maxRegs := runQuickstart(t, false)
	fullCount, avgFull, _ := runQuickstart(t, true)
	if minCount != fullCount {
		t.Fatalf("instruction counts diverge: minimal %d, full %d", minCount, fullCount)
	}
	if minCount == 0 {
		t.Fatal("no instructions counted")
	}
	if avgMin >= float64(maxRegs) {
		t.Fatalf("mean saved regs per trampoline %.1f, want strictly below MaxRegs %d", avgMin, maxRegs)
	}
	if avgMin >= avgFull {
		t.Fatalf("liveness sizing (%.1f regs/trampoline) did not improve on the full save (%.1f)", avgMin, avgFull)
	}
}

// TestDifferentialInlineInjection is the same end-to-end guarantee for the
// inline injection strategy: for all six tools and both schedulers, splicing
// tool bodies into dead registers (with per-visit trampoline fallback) yields
// reports byte-identical to pure trampoline codegen. At least one site must
// actually inline somewhere across the matrix, or the mode silently
// degenerated to the thing it is tested against.
func TestDifferentialInlineInjection(t *testing.T) {
	scheds := map[string]gpusim.SchedulerKind{
		"sequential": gpusim.SchedulerSequential,
		"parallel":   gpusim.SchedulerParallelSM,
	}
	var mu sync.Mutex
	inlined := 0
	t.Run("tools", func(t *testing.T) {
		for _, toolName := range diffTools {
			for schedName, sched := range scheds {
				toolName, schedName, sched := toolName, schedName, sched
				t.Run(toolName+"/"+schedName, func(t *testing.T) {
					t.Parallel()
					tramp, jsTramp := diffRun(t, toolName, nvbit.InjectTrampoline, sched)
					inline, jsInline := diffRun(t, toolName, nvbit.InjectInline, sched)
					if inline != tramp {
						t.Errorf("output diverges between inline and trampoline injection:\ntrampoline:\n%s\ninline:\n%s", tramp, inline)
					}
					if tramp == "" {
						t.Error("empty report")
					}
					if jsTramp.InlinedSites != 0 {
						t.Errorf("trampoline mode spliced %d inline sites", jsTramp.InlinedSites)
					}
					mu.Lock()
					inlined += jsInline.InlinedSites
					mu.Unlock()
				})
			}
		}
	})
	if inlined == 0 {
		t.Fatal("inline mode never spliced a single site across any tool or scheduler")
	}
}

// TestDifferentialSaveSets is the end-to-end guarantee behind the liveness
// optimization: for all six tools and both schedulers, minimal and full
// save sets yield identical reports.
func TestDifferentialSaveSets(t *testing.T) {
	scheds := map[string]gpusim.SchedulerKind{
		"sequential": gpusim.SchedulerSequential,
		"parallel":   gpusim.SchedulerParallelSM,
	}
	for _, toolName := range diffTools {
		for schedName, sched := range scheds {
			toolName, schedName, sched := toolName, schedName, sched
			t.Run(toolName+"/"+schedName, func(t *testing.T) {
				t.Parallel()
				minimal, jsMin := diffRun(t, toolName, nvbit.InjectTrampoline, sched)
				full, jsFull := diffRun(t, toolName, nvbit.InjectFullSave, sched)
				avgMin, avgFull := jsMin.AvgSavedRegs(), jsFull.AvgSavedRegs()
				if minimal != full {
					t.Errorf("output diverges between minimal and full save sets:\nminimal:\n%s\nfull:\n%s", minimal, full)
				}
				if minimal == "" {
					t.Error("empty report")
				}
				// The minimal runs must actually shrink the save sets,
				// not merely match output.
				if avgMin >= avgFull {
					t.Errorf("liveness sizing saved %.1f regs/site on average, full save %.1f — no reduction", avgMin, avgFull)
				}
			})
		}
	}
}

// boundaryCounter instruments only LOP (logic-op) instructions, so the
// boundary kernels below expose exactly one instrumentation site. Its tool
// function is a tally with a deliberately padded working set (five u64
// pairs live at once, beside the counter's argument pair) so that the
// baseline kernel's spare dead registers do not already cover it and the
// trampoline→inline flip lands inside the probe range.
type boundaryCounter struct {
	counter uint64
}

const boundaryToolPTX = `
.toolfunc bnd_count(.param .u64 counter)
{
	.reg .u64 %rd<12>;
	ld.param.u64 %rd0, [counter];
	mov.u64 %rd2, 0;
	mov.u64 %rd4, 0;
	mov.u64 %rd6, 0;
	mov.u64 %rd8, 0;
	mov.u64 %rd10, 1;
	add.u64 %rd2, %rd2, %rd4;
	add.u64 %rd6, %rd6, %rd8;
	add.u64 %rd2, %rd2, %rd6;
	add.u64 %rd10, %rd10, %rd2;
	red.global.add.u64 [%rd0], %rd10;
	ret;
}
`

func (t *boundaryCounter) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(boundaryToolPTX); err != nil {
		panic(err)
	}
	var err error
	if t.counter, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *boundaryCounter) AtTerm(*nvbit.NVBit) {}

func (t *boundaryCounter) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	for _, i := range insts {
		if i.GetOpcode() == "LOP" {
			n.InsertCallArgs(i, "bnd_count", nvbit.IPointBefore, nvbit.ArgDevPtr(t.counter))
		}
	}
}

// boundaryPTX builds a kernel with exactly one LOP site and `dead` extra
// registers that are defined early and never read again — dead across the
// site. Every other register is defined before the AND and used after it, so
// the PTX compiler's linear allocator (no live-range reuse) makes each
// increment of `dead` grow the site's dead-register pool by exactly one
// physical register.
func boundaryPTX(dead int) string {
	var b strings.Builder
	b.WriteString(".visible .entry bnd(.param .u64 out)\n{\n")
	fmt.Fprintf(&b, "\t.reg .u32 %%r<%d>;\n", dead+4)
	b.WriteString("\t.reg .u64 %rd<4>;\n")
	// %r0 is the global thread index, so each thread of the two CTAs stores
	// to a word of its own; %r1 and %r2 are scratch here and defined again
	// below, before the site, so the site's dead pool does not notice.
	b.WriteString("\tmov.u32 %r0, %tid.x;\n")
	b.WriteString("\tmov.u32 %r1, %ctaid.x;\n")
	b.WriteString("\tmov.u32 %r2, %ntid.x;\n")
	b.WriteString("\tmad.lo.u32 %r0, %r1, %r2, %r0;\n")
	b.WriteString("\tld.param.u64 %rd0, [out];\n")
	b.WriteString("\tmul.wide.u32 %rd2, %r0, 4;\n")
	b.WriteString("\tadd.u64 %rd0, %rd0, %rd2;\n")
	b.WriteString("\tmov.u32 %r1, 5;\n")
	for k := 0; k < dead; k++ {
		fmt.Fprintf(&b, "\tmov.u32 %%r%d, 9;\n", k+3)
	}
	b.WriteString("\tand.b32 %r2, %r0, 63;\n") // the single instrumented site
	b.WriteString("\tadd.u32 %r2, %r2, %r1;\n")
	b.WriteString("\tadd.u64 %rd2, %rd2, 8;\n") // keeps %rd2 live across the site
	b.WriteString("\tst.global.u32 [%rd0], %r2;\n")
	b.WriteString("\texit;\n}\n")
	return b.String()
}

// runBoundary launches one boundary kernel (2 CTAs x 32 threads) under the
// given injection mode and returns the tally plus JIT stats.
func runBoundary(t *testing.T, dead int, mode nvbit.InjectionMode, sched gpusim.SchedulerKind) (uint64, nvbit.JITStats) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	tool := &boundaryCounter{}
	nv, err := nvbit.Attach(api, tool, nvbit.WithScheduler(sched), nvbit.WithInjectionMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("bnd", boundaryPTX(dead))
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("bnd")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.MemAlloc(4 * 64)
	params, err := gpusim.PackParams(f, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchKernel(f, gpusim.D1(2), gpusim.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	count, err := nv.ReadU64(tool.counter)
	if err != nil {
		t.Fatal(err)
	}
	return count, nv.JITStats()
}

// TestInlineFallbackBoundary pins the inline/trampoline decision to the exact
// register where it flips: with a dead-register pool one register short of
// what the tool body needs, inline mode must fall back to a trampoline; one
// register over, it must splice. Either side of the boundary, under either
// scheduler, the tally is identical — the fallback is invisible except in JIT
// stats.
func TestInlineFallbackBoundary(t *testing.T) {
	// Probe for the flip point: the smallest dead pool that lets the tally
	// body inline. Codegen is deterministic, so one scheduler suffices to
	// locate it; both schedulers then verify behavior on each side.
	flip := -1
	for d := 0; d <= 24; d++ {
		_, js := runBoundary(t, d, nvbit.InjectInline, gpusim.SchedulerSequential)
		if js.InlinedSites > 0 {
			flip = d
			break
		}
	}
	if flip < 0 {
		t.Fatal("tally never inlined with up to 24 spare dead registers")
	}
	if flip == 0 {
		t.Fatal("tally inlined with no padding dead registers; boundary not probeable")
	}
	scheds := map[string]gpusim.SchedulerKind{
		"sequential": gpusim.SchedulerSequential,
		"parallel":   gpusim.SchedulerParallelSM,
	}
	for schedName, sched := range scheds {
		schedName, sched := schedName, sched
		t.Run(schedName, func(t *testing.T) {
			for _, d := range []int{flip - 1, flip} {
				countTramp, jsTramp := runBoundary(t, d, nvbit.InjectTrampoline, sched)
				countInline, jsInline := runBoundary(t, d, nvbit.InjectInline, sched)
				if jsTramp.TrampolinesEmitted != 1 || jsTramp.InlinedSites != 0 {
					t.Fatalf("dead=%d: trampoline mode emitted %d trampolines, %d inline sites",
						d, jsTramp.TrampolinesEmitted, jsTramp.InlinedSites)
				}
				if d < flip {
					// One register short: the site must fall back.
					if jsInline.InlinedSites != 0 || jsInline.TrampolinesEmitted != 1 {
						t.Errorf("dead=%d (one short, %s): inline mode spliced %d sites, emitted %d trampolines; want pure fallback",
							d, schedName, jsInline.InlinedSites, jsInline.TrampolinesEmitted)
					}
				} else if jsInline.InlinedSites != 1 || jsInline.TrampolinesEmitted != 0 {
					t.Errorf("dead=%d (one over, %s): inline mode spliced %d sites, emitted %d trampolines; want pure inline",
						d, schedName, jsInline.InlinedSites, jsInline.TrampolinesEmitted)
				}
				if countInline != countTramp {
					t.Errorf("dead=%d (%s): tally diverges, inline %d vs trampoline %d",
						d, schedName, countInline, countTramp)
				}
				if countTramp == 0 {
					t.Error("no site visits counted")
				}
			}
		})
	}
}
