package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// toolSrc is the shared device-function library for the tests: a per-thread
// tally (Listing 1's ifunc), a guard-aware tally (Listing 8's early-return
// idiom), a basic-block tally, a register writer for emulation, and an
// address capturer.
const toolSrc = `
.toolfunc tally(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
.toolfunc predtally(.param .u32 pred, .param .u64 ctr)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u32 %r0, [pred];
	setp.eq.u32 %p0, %r0, 0;
	@%p0 ret;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
.toolfunc bbtally(.param .u32 cnt, .param .u64 ctr)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	ld.param.u32 %r0, [cnt];
	ld.param.u64 %rd0, [ctr];
	cvt.u64.u32 %rd2, %r0;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
.toolfunc emuwr(.param .u32 reg, .param .u32 val)
{
	.reg .u32 %r<2>;
	ld.param.u32 %r0, [reg];
	ld.param.u32 %r1, [val];
	wrreg.b32 %r0, %r1;
	ret;
}
.toolfunc capaddr(.param .u64 addr, .param .u64 out)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [addr];
	ld.param.u64 %rd2, [out];
	st.global.u64 [%rd2], %rd0;
	ret;
}
.toolfunc touch(.param .u32 v)
{
	.reg .u32 %r<2>;
	ld.param.u32 %r0, [v];
	ret;
}
.toolfunc peek(.param .u32 reg)
{
	.reg .u32 %r<2>;
	ld.param.u32 %r0, [reg];
	rdreg.b32 %r1, %r0;
	ret;
}
`

// workPTX is a small application kernel with predication, a data-dependent
// loop (divergence) and global loads/stores.
const workPTX = `
.visible .entry work(.param .u64 data, .param .u32 n)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r5, [%rd0];
	and.b32 %r6, %r3, 3;
	add.u32 %r6, %r6, 1;     // trips = gid%4 + 1
	mov.u32 %r7, 0;          // acc
LOOP:
	add.u32 %r7, %r7, %r5;
	sub.u32 %r6, %r6, 1;
	setp.gt.u32 %p0, %r6, 0;
	@%p0 bra LOOP;
	st.global.u32 [%rd0], %r7;
	exit;
}
`

// testTool is a configurable Tool implementation driven by a closure.
type testTool struct {
	onInit   func(n *NVBit)
	onLaunch func(n *NVBit, p *driver.CallParams)
	onTerm   func(n *NVBit)
}

func (t *testTool) AtInit(n *NVBit) {
	if err := n.RegisterToolPTX(toolSrc); err != nil {
		panic(err)
	}
	if t.onInit != nil {
		t.onInit(n)
	}
}

func (t *testTool) AtTerm(n *NVBit) {
	if t.onTerm != nil {
		t.onTerm(n)
	}
}

func (t *testTool) AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams) {
	if !exit && cbid == driver.CBLaunchKernel && t.onLaunch != nil {
		t.onLaunch(n, p)
	}
}

type testEnv struct {
	api  *driver.API
	ctx  *driver.Context
	nv   *NVBit
	fn   *driver.Function
	data uint64
	n    uint32
}

func setup(t *testing.T, fam sass.Family, tool Tool, opts ...Option) *testEnv {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(fam))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Attach(api, tool, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app.ptx", workPTX)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.GetFunction("work")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	data, err := ctx.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		host[4*i] = byte(i%7 + 1)
	}
	if err := ctx.MemcpyHtoD(data, host); err != nil {
		t.Fatal(err)
	}
	return &testEnv{api: api, ctx: ctx, nv: nv, fn: fn, data: data, n: n}
}

func (e *testEnv) launch(t *testing.T) {
	t.Helper()
	params, err := driver.PackParams(e.fn, e.data, e.n)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.LaunchKernel(e.fn, gpu.D1(4), gpu.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
}

func (e *testEnv) reloadData(t *testing.T) {
	t.Helper()
	host := make([]byte, 4*e.n)
	for i := uint32(0); i < e.n; i++ {
		host[4*i] = byte(i%7 + 1)
	}
	if err := e.ctx.MemcpyHtoD(e.data, host); err != nil {
		t.Fatal(err)
	}
}

func (e *testEnv) results(t *testing.T) []uint32 {
	t.Helper()
	host := make([]byte, 4*e.n)
	if err := e.ctx.MemcpyDtoH(host, e.data); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, e.n)
	for i := range out {
		out[i] = uint32(host[4*i]) | uint32(host[4*i+1])<<8 | uint32(host[4*i+2])<<16 | uint32(host[4*i+3])<<24
	}
	return out
}

func wantWorkResults(n uint32) []uint32 {
	out := make([]uint32, n)
	for i := uint32(0); i < n; i++ {
		out[i] = uint32(i%7+1) * (i%4 + 1)
	}
	return out
}

// instrumentAll injects the per-thread tally before every instruction.
func instrumentAll(ctr uint64) func(n *NVBit, p *driver.CallParams) {
	return func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctr))
		}
	}
}

func TestInstrCountMatchesGroundTruth(t *testing.T) {
	for _, fam := range []sass.Family{sass.Pascal, sass.Volta} {
		t.Run(fam.String(), func(t *testing.T) {
			// Native run first for the ground truth.
			var ctr uint64
			tool := &testTool{}
			env := setup(t, fam, tool)
			env.launch(t)
			native := env.api.Device().Stats()
			nativeThreadInstrs := native.ThreadInstrs
			for i, got := range env.results(t) {
				if want := wantWorkResults(env.n)[i]; got != want {
					t.Fatalf("native result[%d] = %d, want %d", i, got, want)
				}
			}

			// Now instrument every instruction with the tally.
			var err error
			ctr, err = env.nv.Malloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.nv.WriteU64(ctr, 0); err != nil {
				t.Fatal(err)
			}
			tool.onLaunch = instrumentAll(ctr)
			env.reloadData(t)
			env.launch(t)

			count, err := env.nv.ReadU64(ctr)
			if err != nil {
				t.Fatal(err)
			}
			if count != nativeThreadInstrs {
				t.Fatalf("instrumented count = %d, native thread-level instructions = %d", count, nativeThreadInstrs)
			}
			// Semantics preserved under instrumentation.
			for i, got := range env.results(t) {
				if want := wantWorkResults(env.n)[i]; got != want {
					t.Fatalf("instrumented result[%d] = %d, want %d", i, got, want)
				}
			}
			// And the instrumented run costs more.
			after := env.api.Device().Stats()
			if after.WarpInstrs-native.WarpInstrs <= native.WarpInstrs {
				t.Fatalf("instrumented run did not execute extra instructions: %d vs %d",
					after.WarpInstrs-native.WarpInstrs, native.WarpInstrs)
			}
		})
	}
}

func TestEnableDisableInstrumented(t *testing.T) {
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	var err error
	ctr, err = env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	base := instrumentAll(ctr)
	enable := true
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		base(n, p)
		if err := n.EnableInstrumented(p.Launch.Func, enable); err != nil {
			panic(err)
		}
	}

	env.launch(t)
	c1, _ := env.nv.ReadU64(ctr)
	if c1 == 0 {
		t.Fatal("enabled instrumentation did not count")
	}

	// Disable: the original version runs; the counter must not move.
	enable = false
	env.reloadData(t)
	env.launch(t)
	c2, _ := env.nv.ReadU64(ctr)
	if c2 != c1 {
		t.Fatalf("disabled instrumentation still counted: %d -> %d", c1, c2)
	}
	for i, got := range env.results(t) {
		if want := wantWorkResults(env.n)[i]; got != want {
			t.Fatalf("uninstrumented result[%d] = %d, want %d", i, got, want)
		}
	}

	// Re-enable: the swap cost is a code-sized copy; counting resumes.
	enable = true
	env.reloadData(t)
	env.launch(t)
	c3, _ := env.nv.ReadU64(ctr)
	if c3 != 2*c1 {
		t.Fatalf("re-enabled count = %d, want %d", c3, 2*c1)
	}
}

func TestGuardPredArgCountsOnlyExecutingLanes(t *testing.T) {
	// Count with the guard-predicate idiom: guard-false lanes return
	// immediately, so the count equals executing (guard-true) lanes.
	var ctrAll, ctrExec uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctrAll, _ = env.nv.Malloc(8)
	ctrExec, _ = env.nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctrAll))
			n.InsertCallArgs(i, "predtally", IPointBefore, ArgSitePred(), ArgDevPtr(ctrExec))
		}
	}
	env.launch(t)
	all, _ := env.nv.ReadU64(ctrAll)
	exec, _ := env.nv.ReadU64(ctrExec)
	if all == 0 || exec == 0 {
		t.Fatalf("counters empty: all=%d exec=%d", all, exec)
	}
	if exec >= all {
		t.Fatalf("guarded count %d should be below total %d (kernel has guard-false lanes)", exec, all)
	}
}

func TestBasicBlockInstrumentation(t *testing.T) {
	// Counting once per basic block with the block size as an argument
	// must agree exactly with per-instruction counting (the optimization
	// sketched in the paper's Section 3).
	var ctrBB, ctrInstr uint64
	tool := &testTool{}
	env := setup(t, sass.Pascal, tool)
	ctrBB, _ = env.nv.Malloc(8)
	ctrInstr, _ = env.nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		blocks, err := n.GetBasicBlocks(f)
		if err != nil {
			panic(err)
		}
		for _, bb := range blocks {
			first := bb.Instrs[0]
			n.InsertCallArgs(first, "bbtally", IPointBefore,
				ArgConst32(uint32(len(bb.Instrs))), ArgDevPtr(ctrBB))
		}
		insts, _ := n.GetInstrs(f)
		for _, i := range insts {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctrInstr))
		}
	}
	env.launch(t)
	bb, _ := env.nv.ReadU64(ctrBB)
	per, _ := env.nv.ReadU64(ctrInstr)
	if bb == 0 || bb != per {
		t.Fatalf("basic-block count %d != per-instruction count %d", bb, per)
	}
	// Correctness preserved.
	for i, got := range env.results(t) {
		if want := wantWorkResults(env.n)[i]; got != want {
			t.Fatalf("result[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestIPointAfterAndRegVal(t *testing.T) {
	// Capture the value of the loaded register after an LDG executes.
	var slot uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	slot, _ = env.nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			if i.GetMemOpSpace() != sass.MemGlobal || !i.IsLoad() {
				continue
			}
			mref, ok := i.MemOperand()
			if !ok {
				panic("global load without memory operand")
			}
			// Capture the 64-bit address (base register pair), as in
			// Listing 8, before the load executes.
			n.InsertCallArgs(i, "capaddr", IPointBefore,
				ArgReg64(int(mref.Base)), ArgDevPtr(slot))
		}
	}
	env.launch(t)
	addr, _ := env.nv.ReadU64(slot)
	// The last captured address must fall inside the data buffer.
	if addr < env.data || addr >= env.data+uint64(4*env.n) {
		t.Fatalf("captured address %#x outside data buffer [%#x,+%d)", addr, env.data, 4*env.n)
	}
}

func TestRemoveOrigEmulation(t *testing.T) {
	// Emulate an instruction: remove the original MOVI and write a
	// different value into its destination register through the device
	// API; the write must survive the restore (permanent modification).
	src := `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 5;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r0;
	exit;
}
`
	tool := &testTool{}
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("k.ptx", src)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("k")
	out, _ := ctx.MemAlloc(4)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, err := n.GetInstrs(p.Launch.Func)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			if i.Op() == sass.OpMOVI && i.Raw().Imm == 5 {
				n.InsertCallArgs(i, "emuwr", IPointBefore,
					ArgConst32(uint32(i.Raw().Dst)), ArgConst32(99))
				n.RemoveOrig(i)
			}
		}
	}
	params, _ := driver.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	v, err := nv.ReadU32(out)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("emulated value = %d, want 99", v)
	}
}

func TestResetInstrumented(t *testing.T) {
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	c1, _ := env.nv.ReadU64(ctr)
	if c1 == 0 {
		t.Fatal("no counts")
	}
	if err := env.nv.ResetInstrumented(env.fn); err != nil {
		t.Fatal(err)
	}
	if env.nv.IsInstrumented(env.fn) {
		t.Fatal("still instrumented after reset")
	}
	// Stop re-instrumenting; launches must run the original code. (The
	// instrumentAll closure would re-instrument, so drop it.)
	tool.onLaunch = nil
	env.reloadData(t)
	env.launch(t)
	c2, _ := env.nv.ReadU64(ctr)
	if c2 != c1 {
		t.Fatalf("counter moved after reset: %d -> %d", c1, c2)
	}
}

// fatKernelPTX builds a kernel whose register pressure ramps from 2 live
// registers up to ~28 and back down: a chain of definitions all consumed by
// a final summing phase, cut into basic blocks of five by branches to the
// next instruction. A visit's save set is sized where it starts, so the save
// sets of the blocks must track that ramp.
func fatKernelPTX() string {
	var b strings.Builder
	b.WriteString(".visible .entry fat(.param .u64 out)\n{\n")
	b.WriteString("\t.reg .u32 %r<26>;\n\t.reg .u64 %rd<4>;\n")
	b.WriteString("\tld.param.u64 %rd0, [out];\n")
	b.WriteString("\tmov.u32 %r0, %tid.x;\n")
	b.WriteString("\tmul.wide.u32 %rd2, %r0, 4;\n")
	b.WriteString("\tadd.u64 %rd0, %rd0, %rd2;\n")
	for k := 1; k <= 25; k++ {
		fmt.Fprintf(&b, "\tadd.u32 %%r%d, %%r%d, 1;\n", k, k-1)
		if k%5 == 0 {
			fmt.Fprintf(&b, "\tbra UP%d;\nUP%d:\n", k, k)
		}
	}
	for k := 1; k <= 25; k++ {
		fmt.Fprintf(&b, "\tadd.u32 %%r0, %%r0, %%r%d;\n", k)
		if k%5 == 0 {
			fmt.Fprintf(&b, "\tbra DOWN%d;\nDOWN%d:\n", k, k)
		}
	}
	b.WriteString("\tst.global.u32 [%rd0], %r0;\n\texit;\n}\n")
	return b.String()
}

func TestSaveSetSizing(t *testing.T) {
	// Near-register-free tool functions on a register-fat kernel, so any save
	// set above the tool ABI's R16+ locals floor comes from the application.
	// peek reads the saved context, so each of its calls stays at its own site
	// and its frame must hold what liveness proves live there: the save sets
	// track the ramp. touch cannot look, so its calls coalesce into one visit
	// per basic block and its frame holds its own registers and no more.
	for _, funcName := range []string{"peek", "touch"} {
		tool := &testTool{}
		env := setup(t, sass.Volta, tool)
		mod, err := env.ctx.ModuleLoadPTX("fat.ptx", fatKernelPTX())
		if err != nil {
			t.Fatal(err)
		}
		fn, err := mod.GetFunction("fat")
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
			for _, i := range insts {
				n.InsertCallArgs(i, funcName, IPointBefore, ArgConst32(7))
			}
		}
		out, err := env.ctx.MemAlloc(4 * 64)
		if err != nil {
			t.Fatal(err)
		}
		params, err := driver.PackParams(fn, out)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.ctx.LaunchKernel(fn, gpu.D1(1), gpu.D1(64), 0, params); err != nil {
			t.Fatal(err)
		}
		full := env.nv.hal.SaveSetSize(fn.MaxRegs())
		for nRegs := range env.nv.loader.saves {
			if nRegs%env.nv.hal.SaveGranularity != 0 {
				t.Fatalf("%s: save set %d not a multiple of granularity", funcName, nRegs)
			}
			if nRegs < 1 || nRegs > full {
				t.Fatalf("%s: save set %d outside (0, %d]: liveness must never save more than the whole-function bound", funcName, nRegs, full)
			}
		}
		js := env.nv.JITStats()
		if js.TrampolinesEmitted == 0 || js.SavedRegs == 0 {
			t.Fatalf("%s: save-set metric not accumulated: %+v", funcName, js)
		}
		perVisit := float64(js.SavedRegs) / float64(js.Visits)
		if perVisit >= float64(fn.MaxRegs()) {
			t.Fatalf("%s: mean save set %.1f not below the whole-function requirement %d", funcName, perVisit, fn.MaxRegs())
		}
		if funcName == "peek" {
			if len(env.nv.loader.saves) < 2 {
				t.Fatalf("per-site sizing should load several save-routine sizes, got %v", env.nv.loader.saves)
			}
			if js.Visits != js.TrampolinesEmitted {
				t.Fatalf("%d visits for %d sites of a function that reads the saved context", js.Visits, js.TrampolinesEmitted)
			}
		} else {
			tf, _ := env.nv.loader.lookup(funcName)
			if len(env.nv.loader.saves) != 1 || int(perVisit) != tf.numRegs {
				t.Fatalf("a function that cannot see the context saves %v (%.1f per visit), want its own %d registers everywhere",
					env.nv.loader.saves, perVisit, tf.numRegs)
			}
			if js.Visits < 10 || js.Visits >= js.TrampolinesEmitted {
				t.Fatalf("%d visits for %d sites, want one per basic block", js.Visits, js.TrampolinesEmitted)
			}
			if js.AvgSavedRegs() >= perVisit {
				t.Fatalf("%.1f registers saved per site, want fewer than the %.1f per visit its sites share", js.AvgSavedRegs(), perVisit)
			}
		}
		// The kernel must still compute the right answer under minimal saves:
		// each thread stores tid*26 + (1+2+...+25).
		host := make([]byte, 4*64)
		if err := env.ctx.MemcpyDtoH(host, out); err != nil {
			t.Fatal(err)
		}
		for tid := 0; tid < 64; tid++ {
			got := uint32(host[4*tid]) | uint32(host[4*tid+1])<<8 | uint32(host[4*tid+2])<<16 | uint32(host[4*tid+3])<<24
			want := uint32(tid*26 + 325)
			if got != want {
				t.Fatalf("%s: thread %d: got %d, want %d", funcName, tid, got, want)
			}
		}
	}
}

func TestSaveSetCoversToolRequirement(t *testing.T) {
	// A register-hungry tool function must still be fully covered: the
	// liveness minimum can never undercut what the injected function needs.
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	var ctr uint64
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	tf, err := env.nv.loader.lookup("tally")
	if err != nil {
		t.Fatal(err)
	}
	full := env.nv.hal.SaveSetSize(env.fn.MaxRegs())
	for nRegs := range env.nv.loader.saves {
		if nRegs < tf.numRegs {
			t.Fatalf("save set %d smaller than the tool's %d registers", nRegs, tf.numRegs)
		}
		if nRegs > full {
			t.Fatalf("save set %d above the whole-function bound %d", nRegs, full)
		}
	}
}

func TestHALPerFamily(t *testing.T) {
	volta := setup(t, sass.Volta, &testTool{})
	if volta.nv.HAL().ABIVersion != 2 || !volta.nv.HAL().SaveBarrierState || volta.nv.HAL().InstBytes != 16 {
		t.Fatalf("volta HAL: %+v", volta.nv.HAL())
	}
	kep := setup(t, sass.Kepler, &testTool{})
	if kep.nv.HAL().ABIVersion != 1 || kep.nv.HAL().SaveBarrierState || kep.nv.HAL().InstBytes != 8 {
		t.Fatalf("kepler HAL: %+v", kep.nv.HAL())
	}
	if kep.nv.HAL().SaveSetSize(13) != 16 || kep.nv.HAL().SaveSetSize(16) != 16 {
		t.Fatal("save-set rounding wrong")
	}
}

func TestJITStatsPopulated(t *testing.T) {
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Pascal, tool)
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	st := env.nv.JITStats()
	if st.FunctionsLifted != 1 || st.InstrsLifted == 0 {
		t.Fatalf("lift counters: %+v", st)
	}
	if st.TrampolinesEmitted != st.InstrsLifted {
		t.Fatalf("trampolines serve %d sites != instrumented instructions %d", st.TrampolinesEmitted, st.InstrsLifted)
	}
	// The tally moves freely, so the work kernel's four basic blocks are four
	// visits, each with one save/restore bracket as large as the tally needs.
	if st.Visits != 4 || st.SitesPerVisit() != float64(st.InstrsLifted)/4 {
		t.Fatalf("%d visits, %.2f sites each, want 4 covering %d sites", st.Visits, st.SitesPerVisit(), st.InstrsLifted)
	}
	if st.SavedRegs != 4*6 {
		t.Fatalf("SavedRegs %d, want the tally's 6 registers once for each of 4 visits", st.SavedRegs)
	}
	if st.SwapBytes == 0 {
		t.Fatal("no swap recorded")
	}
	if st.Total() <= 0 {
		t.Fatal("no JIT time recorded")
	}
	comps, labels := st.Components()
	if len(labels) != 8 {
		t.Fatal("want eight components")
	}
	if labels[6] != "cache_lookup" || labels[7] != "cache_hit" {
		t.Fatalf("cache phase labels = %q, %q", labels[6], labels[7])
	}
	if comps[6] != 0 || comps[7] != 0 {
		t.Fatalf("cache phases nonzero without a cache: %v", comps)
	}
}

func TestBranchRelocation(t *testing.T) {
	// The work kernel's loop branch gets instrumented like everything
	// else; its relocated copy inside the trampoline must be re-aimed at
	// the original target. Correct results across all lanes prove it.
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Kepler, tool)
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	for i, got := range env.results(t) {
		if want := wantWorkResults(env.n)[i]; got != want {
			t.Fatalf("result[%d] = %d, want %d (branch relocation broken)", i, got, want)
		}
	}
}

func TestInstrInspectionAPI(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	insts, err := env.nv.GetInstrs(env.fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) == 0 {
		t.Fatal("no instructions")
	}
	var sawLoad, sawStore, sawGuard, sawLine bool
	for _, i := range insts {
		if i.Idx() < 0 || i.Offset() != i.Idx()*16 {
			t.Fatalf("offset mismatch at %d", i.Idx())
		}
		if i.GetSASS() != sass.Format(i.Raw()) || i.GetOpcode() == "" {
			t.Fatalf("instruction %d disassembles to %q, want %q", i.Idx(), i.GetSASS(), sass.Format(i.Raw()))
		}
		if i.IsLoad() && i.GetMemOpSpace() == sass.MemGlobal {
			sawLoad = true
			if _, ok := i.MemOperand(); !ok {
				t.Fatal("global load without memory operand")
			}
		}
		if i.IsStore() && i.GetMemOpSpace() == sass.MemGlobal {
			sawStore = true
		}
		if _, _, guarded := i.GetPredicate(); guarded {
			sawGuard = true
		}
		if file, line, ok := i.GetLineInfo(); ok {
			sawLine = true
			if file != "app.ptx" || line <= 0 {
				t.Fatalf("line info = %q:%d", file, line)
			}
		}
		if n := i.GetNumOperands(); n > 0 {
			if _, ok := i.GetOperand(0); !ok {
				t.Fatal("GetOperand(0) failed")
			}
			if _, ok := i.GetOperand(n); ok {
				t.Fatal("GetOperand out of range succeeded")
			}
		}
	}
	if !sawLoad || !sawStore || !sawGuard || !sawLine {
		t.Fatalf("inspection coverage: load=%v store=%v guard=%v line=%v", sawLoad, sawStore, sawGuard, sawLine)
	}
	blocks, err := env.nv.GetBasicBlocks(env.fn)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range blocks {
		total += len(b.Instrs)
	}
	if total != len(insts) {
		t.Fatalf("blocks cover %d of %d instructions", total, len(insts))
	}
	if related := env.nv.GetRelatedFuncs(env.fn); len(related) != 0 {
		t.Fatalf("unexpected related functions: %v", related)
	}
}

// launchErr launches the work kernel and returns the error instead of
// failing the test — for instrumentation mistakes that must surface as
// ErrToolCallback launch failures, not process crashes.
func (e *testEnv) launchErr(t *testing.T) error {
	t.Helper()
	params, err := driver.PackParams(e.fn, e.data, e.n)
	if err != nil {
		t.Fatal(err)
	}
	return e.ctx.LaunchKernel(e.fn, gpu.D1(4), gpu.D1(64), 0, params)
}

func TestInstrumentationErrors(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)

	// Unknown tool function: the core's instrumentation failure fails the
	// launch callback, which the driver wraps in ErrToolCallback.
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, _ := n.GetInstrs(p.Launch.Func)
		n.InsertCall(insts[0], "no_such_func", IPointBefore)
	}
	err := env.launchErr(t)
	if err == nil {
		t.Fatal("launch with a broken tool succeeded")
	}
	if !errors.Is(err, driver.ErrToolCallback) {
		t.Fatalf("error is not ErrToolCallback: %v", err)
	}
	if !strings.Contains(err.Error(), "no_such_func") {
		t.Fatalf("error message: %v", err)
	}
}

// panicTool panics in the enter callbacks of the calls in enter, in the exit
// callbacks of those in exit and, with term, in AtTerm.
type panicTool struct {
	testTool
	enter, exit map[driver.CBID]bool
	term        bool
}

func (t *panicTool) AtTerm(*NVBit) {
	if t.term {
		panic("tool bug in AtTerm")
	}
}

func (t *panicTool) AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams) {
	if exit && t.exit[cbid] || !exit && t.enter[cbid] {
		panic("tool bug at " + name)
	}
}

// TestToolPanicFailsCall: a tool that panics in a driver callback fails that
// call with ErrToolCallback and nothing else. A panic on entry skips the
// operation (a launch included), one on exit leaves it done, neither poisons
// the context, and a panic in AtTerm surfaces through the driver's Close.
func TestToolPanicFailsCall(t *testing.T) {
	tool := &panicTool{}
	env := setup(t, sass.Volta, tool)
	tool.enter = map[driver.CBID]bool{driver.CBMemAlloc: true, driver.CBLaunchKernel: true}
	tool.exit = map[driver.CBID]bool{driver.CBMemcpyHtoD: true}
	dev := env.api.Device()

	allocs := len(dev.Allocations())
	if _, err := env.ctx.MemAlloc(64); !errors.Is(err, driver.ErrToolCallback) || !strings.Contains(err.Error(), "tool bug at cuMemAlloc") {
		t.Fatalf("MemAlloc with a panicking enter callback: %v", err)
	}
	if got := len(dev.Allocations()); got != allocs {
		t.Fatal("MemAlloc ran although its enter callback panicked")
	}
	launches := dev.Stats().Launches
	if err := env.launchErr(t); !errors.Is(err, driver.ErrToolCallback) {
		t.Fatalf("launch with a panicking enter callback: %v", err)
	}
	if dev.Stats().Launches != launches {
		t.Fatal("the kernel ran although its enter callback panicked")
	}
	if err := env.nv.OnCTAExit(func(int) {}); err == nil {
		t.Error("OnCTAExit outside a launch callback succeeded after a launch callback panicked")
	}

	host := []byte{9, 8, 7}
	if err := env.ctx.MemcpyHtoD(env.data, host); !errors.Is(err, driver.ErrToolCallback) {
		t.Fatalf("MemcpyHtoD with a panicking exit callback: %v", err)
	}
	got := make([]byte, len(host))
	if err := dev.Read(env.data, got); err != nil || !slices.Equal(got, host) {
		t.Fatalf("copy did not happen before the exit callback panicked: %v %v", got, err)
	}

	if err := env.ctx.GetLastError(); err != nil {
		t.Fatalf("a tool panic poisoned the context: %v", err)
	}
	tool.enter, tool.exit = nil, nil
	env.reloadData(t)
	env.launch(t)
	tool.term = true
	if err := env.api.Close(); !errors.Is(err, driver.ErrToolCallback) || !strings.Contains(err.Error(), "tool bug in AtTerm") {
		t.Fatalf("Close with a panicking AtTerm: %v", err)
	}
}

// TestCTAExitFailure: an OnCTAExit callback that panics fails its launch's
// exit callback with ErrToolCallback. The kernel runs to the end without the
// callback, the context stays usable, and the next launch runs without it.
func TestCTAExitFailure(t *testing.T) {
	calls := 0
	tool := &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) {
		if err := n.OnCTAExit(func(int) {
			calls++
			panic("tool bug in OnCTAExit")
		}); err != nil {
			panic(err)
		}
	}}
	env := setup(t, sass.Volta, tool)
	err := env.launchErr(t)
	if !errors.Is(err, driver.ErrToolCallback) || !strings.Contains(err.Error(), "tool bug in OnCTAExit") {
		t.Fatalf("launch with a panicking OnCTAExit callback: %v", err)
	}
	if calls != 1 {
		t.Errorf("the failing callback ran %d times, want once", calls)
	}
	if !slices.Equal(env.results(t), wantWorkResults(env.n)) {
		t.Error("the kernel did not run to the end")
	}
	if env.nv.LaunchFlushHook() != nil {
		t.Error("the CTA hook outlived the failed launch")
	}
	tool.onLaunch = nil
	env.reloadData(t)
	env.launch(t)
	if calls != 1 {
		t.Errorf("the failing callback ran in the next launch (%d calls)", calls)
	}
}

func TestArgArityValidation(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, _ := n.GetInstrs(p.Launch.Func)
		// tally takes one u64; pass a u32.
		n.InsertCallArgs(insts[0], "tally", IPointBefore, ArgConst32(1))
	}
	err := env.launchErr(t)
	if err == nil || !errors.Is(err, driver.ErrToolCallback) {
		t.Fatalf("want ErrToolCallback, got %v", err)
	}
	if !strings.Contains(err.Error(), "8 bytes") {
		t.Fatalf("error message: %v", err)
	}
}
