package faultinject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/sass"
	"nvbitgo/nvbit"
)

// addone: out[gid] = in[gid] + 1.0f. Exactly one FP32-group instruction per
// thread (the add.f32), so with GroupFP32 the dynamic thread-instruction
// index space is exactly the thread count.
const appPTX = `
.visible .entry addone(.param .u64 out, .param .u64 in)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	.reg .f32 %f<4>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u64 %rd0, [in];
	ld.param.u64 %rd2, [out];
	mul.wide.u32 %rd4, %r3, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	mov.u32 %f1, 1.0;
	add.f32 %f0, %f0, %f1;
	st.global.f32 [%rd2], %f0;
	exit;
}
`

// predhalf: lanes with laneid < 16 run the add.f32, the rest are predicated
// off — the guarded lanes must not count toward the dynamic-instruction
// space.
const predPTX = `
.visible .entry predhalf(.param .u64 out, .param .u64 in)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	.reg .f32 %f<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %laneid;
	ld.param.u64 %rd0, [in];
	ld.param.u64 %rd2, [out];
	mul.wide.u32 %rd4, %r0, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	mov.u32 %f1, 1.0;
	setp.lt.u32 %p0, %r0, 16;
	@%p0 add.f32 %f0, %f0, %f1;
	st.global.f32 [%rd2], %f0;
	exit;
}
`

type runEnv struct {
	api *gpusim.API
	ctx *gpusim.Context
	f   *gpusim.Function
	in  uint64
	out uint64
	n   int
}

// setup compiles kernel from src and prepares in[i] = float32(i), a zeroed
// out buffer and a launch of nthreads (multiples of 32 become whole warps in
// CTAs of 32).
func setup(t *testing.T, tool nvbit.Tool, src, kernel string, nthreads int, opts ...nvbit.Option) *runEnv {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	if tool != nil {
		if _, err := nvbit.Attach(api, tool, opts...); err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction(kernel)
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{api: api, ctx: ctx, f: f, n: nthreads}
	if env.in, err = ctx.MemAlloc(uint64(4 * nthreads)); err != nil {
		t.Fatal(err)
	}
	if env.out, err = ctx.MemAlloc(uint64(4 * nthreads)); err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*nthreads)
	for i := 0; i < nthreads; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	if err := ctx.MemcpyHtoD(env.in, host); err != nil {
		t.Fatal(err)
	}
	return env
}

// launch runs the kernel once and returns out[] as raw float32 bit patterns.
func (e *runEnv) launch(t *testing.T) []uint32 {
	t.Helper()
	vals, err := e.launchErr()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func (e *runEnv) launchErr() ([]uint32, error) {
	params, err := gpusim.PackParams(e.f, e.out, e.in)
	if err != nil {
		return nil, err
	}
	block := 32
	if err := e.ctx.LaunchKernel(e.f, gpusim.D1(e.n/block), gpusim.D1(block), 0, params); err != nil {
		return nil, err
	}
	host := make([]byte, 4*e.n)
	if err := e.ctx.MemcpyDtoH(host, e.out); err != nil {
		return nil, err
	}
	vals := make([]uint32, e.n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(host[4*i:])
	}
	return vals, nil
}

func golden(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = math.Float32bits(float32(i) + 1)
	}
	return out
}

// diffOne asserts exactly one element differs from want and returns its index.
func diffOne(t *testing.T, want, got []uint32) int {
	t.Helper()
	idx := -1
	for i := range want {
		if want[i] != got[i] {
			if idx >= 0 {
				t.Fatalf("elements %d and %d both corrupted", idx, i)
			}
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no element corrupted")
	}
	return idx
}

func TestSingleBitFlipPropagates(t *testing.T) {
	tool := New(Injection{Group: GroupFP32, Target: 7, Model: ModelFlip, Bit: 4})
	env := setup(t, tool, appPTX, "addone", 32)
	out := env.launch(t)

	want := golden(32)
	idx := diffOne(t, want, out)
	if out[idx]^want[idx] != 1<<4 {
		t.Fatalf("corruption %#x, want single bit-4 flip", out[idx]^want[idx])
	}
	res, err := tool.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fired {
		t.Fatal("injection did not fire")
	}
	if res.Executed != 32 {
		t.Fatalf("executed = %d dynamic thread-instructions, want 32", res.Executed)
	}
	if res.Old != want[idx] || res.New != out[idx] {
		t.Fatalf("device record old/new = %#x/%#x, output says %#x/%#x",
			res.Old, res.New, want[idx], out[idx])
	}
	if res.Kernel != "addone" {
		t.Fatalf("firing kernel = %q", res.Kernel)
	}
	t.Log(res)
}

func TestTargetBeyondSpaceIsMasked(t *testing.T) {
	tool := New(Injection{Group: GroupFP32, Target: 1 << 40, Model: ModelFlip, Bit: 31})
	env := setup(t, tool, appPTX, "addone", 32)
	out := env.launch(t)
	want := golden(32)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] corrupted with an unreachable target", i)
		}
	}
	res, err := tool.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired {
		t.Fatal("fired with target beyond the dynamic-instruction space")
	}
	if res.Executed != 32 {
		t.Fatalf("executed = %d, want 32", res.Executed)
	}
}

func TestInjectionModels(t *testing.T) {
	cases := []struct {
		inj  Injection
		want func(old uint32) uint32
	}{
		{Injection{Group: GroupFP32, Target: 3, Model: ModelFlip, Bit: 0}, func(o uint32) uint32 { return o ^ 1 }},
		{Injection{Group: GroupFP32, Target: 3, Model: ModelFlip2, Bit: 22}, func(o uint32) uint32 { return o ^ (3 << 22) }},
		{Injection{Group: GroupFP32, Target: 3, Model: ModelRand, Value: 0xDEADBEEF}, func(uint32) uint32 { return 0xDEADBEEF }},
		{Injection{Group: GroupFP32, Target: 3, Model: ModelZero}, func(uint32) uint32 { return 0 }},
	}
	want := golden(32)
	for _, tc := range cases {
		t.Run(tc.inj.Model.String(), func(t *testing.T) {
			tool := New(tc.inj)
			env := setup(t, tool, appPTX, "addone", 32)
			out := env.launch(t)
			idx := diffOne(t, want, out)
			if out[idx] != tc.want(want[idx]) {
				t.Fatalf("corrupted value %#x, want %#x", out[idx], tc.want(want[idx]))
			}
		})
	}
}

// TestModelMasks pins the (and, xor) encoding of each model.
func TestModelMasks(t *testing.T) {
	cases := []struct {
		inj      Injection
		and, xor uint32
	}{
		{Injection{Model: ModelFlip, Bit: 0}, ^uint32(0), 1},
		{Injection{Model: ModelFlip, Bit: 31}, ^uint32(0), 1 << 31},
		{Injection{Model: ModelFlip2, Bit: 5}, ^uint32(0), 3 << 5},
		{Injection{Model: ModelFlip2, Bit: 30}, ^uint32(0), 3 << 30},
		{Injection{Model: ModelRand, Value: 0x1234}, 0, 0x1234},
		{Injection{Model: ModelZero}, 0, 0},
	}
	for _, tc := range cases {
		and, xor := tc.inj.masks()
		if and != tc.and || xor != tc.xor {
			t.Errorf("%v masks = %#x/%#x, want %#x/%#x", tc.inj, and, xor, tc.and, tc.xor)
		}
	}
}

// TestReArmAcrossLaunches: a run that injects again arms a fresh Tool, and
// one arming counts across every launch of its run: only the launch that
// holds the target corrupts, and only once.
func TestReArmAcrossLaunches(t *testing.T) {
	want := golden(32)
	for _, target := range []uint64{2, 32 + 19, 64 + 31} {
		tool := New(Injection{Group: GroupFP32, Target: target, Model: ModelFlip, Bit: 8})
		env := setup(t, tool, appPTX, "addone", 32)
		for k := uint64(0); k < 3; k++ {
			out := env.launch(t)
			if k == target/32 {
				idx := diffOne(t, want, out)
				if out[idx]^want[idx] != 1<<8 {
					t.Fatalf("target %d launch %d: corruption %#x", target, k, out[idx]^want[idx])
				}
			} else if fmt.Sprint(out) != fmt.Sprint(want) {
				t.Fatalf("target %d: launch %d corrupted", target, k)
			}
			res, err := tool.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Fired != (k >= target/32) || res.Executed != 32*(k+1) {
				t.Fatalf("target %d launch %d: fired=%v executed=%d", target, k, res.Fired, res.Executed)
			}
		}
	}
}

// TestParallelSchedulerRace exercises the device-side counter atomics under
// the parallel scheduler (run with -race): many CTAs execute fi_inject
// concurrently, and exactly one dynamic thread-instruction fires per arming.
func TestParallelSchedulerRace(t *testing.T) {
	const n = 32 * 64 // 64 warps across the SM pool
	want := golden(n)
	for _, inj := range []Injection{
		{Group: GroupFP32, Target: n / 2, Model: ModelFlip, Bit: 3},
		{Group: GroupFP32, Target: 5, Model: ModelZero},
	} {
		tool := New(inj)
		env := setup(t, tool, appPTX, "addone", n, nvbit.WithScheduler(nvbit.SchedulerParallelSM))
		out := env.launch(t)
		idx := diffOne(t, want, out)
		if and, xor := inj.masks(); out[idx] != want[idx]&and^xor {
			t.Fatalf("%v: wrote %#x over %#x", inj, out[idx], want[idx])
		}
		res, err := tool.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fired || res.Executed != n {
			t.Fatalf("%v: fired=%v executed=%d, want fired with %d counted", inj, res.Fired, res.Executed, n)
		}
	}
}

// TestGetInstrsErrorBecomesToolCallback is the campaign-robustness contract:
// a victim function the lifter rejects must fail the *launch* with
// ErrToolCallback (a classifiable DUE), not kill the process.
func TestGetInstrsErrorBecomesToolCallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		tool nvbit.Tool
	}{
		{"injector", New(Injection{Group: GroupAll, Target: 0, Model: ModelFlip})},
		// Disarmed, the tool is a campaign's profiler: its golden pass.
		{"profiler", New(Injection{Group: GroupAll, Target: NoTarget})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := setup(t, tc.tool, appPTX, "addone", 32)
			// Corrupt the function's device-resident code before its first
			// launch: 0xFF is not a valid opcode byte, so the lifter's
			// decode inside GetInstrs fails when the tool callback runs.
			dev := env.api.Device()
			raw, err := dev.ReadCode(env.f.Addr, env.f.NumWords)
			if err != nil {
				t.Fatal(err)
			}
			raw[0] = 0xFF
			if err := dev.WriteCode(env.f.Addr, raw); err != nil {
				t.Fatal(err)
			}
			_, err = env.launchErr()
			if err == nil {
				t.Fatal("launch of a corrupt function succeeded")
			}
			if !errors.Is(err, nvbit.ErrToolCallback) {
				t.Fatalf("error is not ErrToolCallback: %v", err)
			}
			if !strings.Contains(err.Error(), "faultinject: lifting") {
				t.Fatalf("error does not carry the tool's context: %v", err)
			}
		})
	}
}

// counted runs kernel from src over nthreads under a disarmed Tool of group
// g and returns how many dynamic thread-instructions it counted.
func counted(t *testing.T, g Group, src, kernel string, nthreads int) uint64 {
	t.Helper()
	tool := New(Injection{Group: g, Target: NoTarget})
	setup(t, tool, src, kernel, nthreads).launch(t)
	res, err := tool.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired {
		t.Fatalf("disarmed %s tool fired", g)
	}
	return res.Executed
}

// TestProfilerCounts: the disarmed tool's count per group — the population
// a campaign draws targets from — on a kernel whose groups are known.
func TestProfilerCounts(t *testing.T) {
	var c [NumGroups]uint64
	for g := Group(0); g < NumGroups; g++ {
		c[g] = counted(t, g, appPTX, "addone", 64)
	}
	if c[GroupFP32] != 64 {
		t.Fatalf("fp32 count = %d, want 64 (one add.f32 per thread)", c[GroupFP32])
	}
	// Every thread loads in[gid] (LDG) plus the two 64-bit param loads.
	if c[GroupLD] < 64 {
		t.Fatalf("ld count = %d, want >= 64", c[GroupLD])
	}
	// A destination is either a single GPR or a wide pair, never both.
	if c[GroupGPR]+c[GroupFP64] != c[GroupAll] {
		t.Fatalf("gpr %d + fp64 %d != all %d", c[GroupGPR], c[GroupFP64], c[GroupAll])
	}
	if c[GroupFP64] < 64 {
		t.Fatalf("fp64 (wide) count = %d, want >= 64 (address arithmetic)", c[GroupFP64])
	}
}

// TestProfilerPredication: predicated-off lanes execute nothing, so they must
// not count (the Listing 8 site-predicate idiom).
func TestProfilerPredication(t *testing.T) {
	if c := counted(t, GroupFP32, predPTX, "predhalf", 32); c != 16 {
		t.Fatalf("fp32 count = %d, want 16 (half the warp predicated off)", c)
	}
}

// TestProfileMatchesInjectionSpace: the disarmed count is exactly the number
// of targets an injection can hit — the last index fires, the next does not.
func TestProfileMatchesInjectionSpace(t *testing.T) {
	space := counted(t, GroupFP32, predPTX, "predhalf", 32)
	for _, tc := range []struct {
		target uint64
		fires  bool
	}{{space - 1, true}, {space, false}} {
		tool := New(Injection{Group: GroupFP32, Target: tc.target, Model: ModelZero})
		setup(t, tool, predPTX, "predhalf", 32).launch(t)
		res, err := tool.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != tc.fires || res.Executed != space {
			t.Fatalf("target %d of a %d space: fired=%v executed=%d", tc.target, space, res.Fired, res.Executed)
		}
	}
}

// launchSeq launches two kernels twice each; each one's first launch comes
// after a launch of the other.
var launchSeq = []string{"predhalf", "addone", "addone", "predhalf"}

const seqThreads = 64

// seqRun is what runSeq observed, per launch of launchSeq.
type seqRun struct {
	outs  [][]uint32 // the launch's own output buffer
	warps []uint64   // warp instructions the launch executed
	nv    *nvbit.NVBit
	fns   map[string]*gpusim.Function
}

// runSeq runs launchSeq under tool (nil: no tool) on the sequential
// scheduler, as a campaign run does.
func runSeq(t *testing.T, tool nvbit.Tool) seqRun {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	var r seqRun
	if tool != nil {
		if r.nv, err = nvbit.Attach(api, tool, nvbit.WithScheduler(nvbit.SchedulerSequential)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app", appPTX+predPTX)
	if err != nil {
		t.Fatal(err)
	}
	r.fns = map[string]*gpusim.Function{}
	for _, name := range []string{"addone", "predhalf"} {
		if r.fns[name], err = mod.GetFunction(name); err != nil {
			t.Fatal(err)
		}
	}
	in, err := ctx.MemAlloc(4 * seqThreads)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*seqThreads)
	for i := 0; i < seqThreads; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	if err := ctx.MemcpyHtoD(in, host); err != nil {
		t.Fatal(err)
	}
	for _, name := range launchSeq {
		out, err := ctx.MemAlloc(4 * seqThreads)
		if err != nil {
			t.Fatal(err)
		}
		params, err := gpusim.PackParams(r.fns[name], out, in)
		if err != nil {
			t.Fatal(err)
		}
		before := api.Device().Stats().WarpInstrs
		if err := ctx.LaunchKernel(r.fns[name], gpusim.D1(seqThreads/32), gpusim.D1(32), 0, params); err != nil {
			t.Fatal(err)
		}
		r.warps = append(r.warps, api.Device().Stats().WarpInstrs-before)
		if err := ctx.MemcpyDtoH(host, out); err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, seqThreads)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(host[4*i:])
		}
		r.outs = append(r.outs, vals)
	}
	return r
}

// TestOnlyCTA fires at the first and the last index of every CTA of every
// launch with only that CTA instrumented. The injection must land where it
// lands with every launch instrumented; every other launch must execute
// exactly its native warp instructions; the target launch must execute what
// it does with every launch instrumented less its other CTAs' share of the
// instrumentation (launchSeq's CTAs all do the same work, so each CTA's
// share is the baseline launch's instrumentation over its CTAs); and a
// kernel never launched at the target ordinal must never be lifted. Under
// the parallel scheduler the target launch fails instead.
func TestOnlyCTA(t *testing.T) {
	native := runSeq(t, nil)
	// The baseline is armed past the space: it instruments every site as an
	// injection run does (the disarmed tool counts per block) and never fires.
	every := &launchTable{Tool: New(Injection{Group: GroupFP32, Target: NoTarget - 1})}
	full := runSeq(t, every)
	const nCTA = seqThreads / 32
	var base uint64
	for k, name := range launchSeq {
		share := (full.warps[k] - native.warps[k]) / nCTA
		if len(every.ctas[k]) != nCTA || share*nCTA != full.warps[k]-native.warps[k] {
			t.Fatalf("launch %d (%s): CTA counts %v and %d instrumentation warp instructions, want %d alike CTAs",
				k, name, every.ctas[k], full.warps[k]-native.warps[k], nCTA)
		}
		for cta, count := range every.ctas[k] {
			// One add.f32 per thread; predhalf guards it off in half of each warp.
			want := uint64(32)
			if name == "predhalf" {
				want /= 2
			}
			if count != want {
				t.Fatalf("launch %d (%s) CTA %d counted %d, want %d", k, name, cta, count, want)
			}
			for _, target := range []uint64{base, base + count - 1} {
				at := fmt.Sprintf("launch %d CTA %d target %d", k, cta, target)
				inj := Injection{Group: GroupFP32, Target: target, Model: ModelFlip, Bit: 5}
				ref := New(inj)
				refRun := runSeq(t, ref)
				refRes, err := ref.Result()
				if err != nil {
					t.Fatal(err)
				}
				tool := New(inj)
				tool.OnlyCTA(k, cta, base)
				run := runSeq(t, tool)
				res, err := tool.Result()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Fired || res.Kernel != name {
					t.Fatalf("%s: fired=%v in %q, want fired in %s", at, res.Fired, res.Kernel, name)
				}
				// The counter runs from base through the target CTA only.
				if res.Executed != base+count {
					t.Fatalf("%s: executed %d, want %d", at, res.Executed, base+count)
				}
				res.Executed = refRes.Executed
				if res != refRes {
					t.Fatalf("%s: injected %+v, every launch instrumented %+v", at, res, refRes)
				}
				if fmt.Sprint(run.outs) != fmt.Sprint(refRun.outs) {
					t.Fatalf("%s: outputs differ from every launch instrumented", at)
				}
				for j := range launchSeq {
					if j != k && run.warps[j] != native.warps[j] {
						t.Fatalf("%s: launch %d ran %d warp instructions, natively %d",
							at, j, run.warps[j], native.warps[j])
					}
				}
				if want := refRun.warps[k] - (nCTA-1)*share; run.warps[k] != want {
					t.Fatalf("%s: the target launch ran %d warp instructions, want %d (%d with every launch instrumented, less %d a CTA for the other %d)",
						at, run.warps[k], want, refRun.warps[k], share, nCTA-1)
				}
				if lifted := run.nv.JITStats().FunctionsLifted; lifted != 1 {
					t.Fatalf("%s: %d functions lifted, want only %s", at, lifted, name)
				}
				for fname, f := range run.fns {
					if got := run.nv.IsInstrumented(f); got != (fname == name) {
						t.Fatalf("%s: %s instrumented = %v", at, fname, got)
					}
				}
			}
			base += count
		}
	}

	tool := New(Injection{Group: GroupFP32, Target: 0, Model: ModelZero})
	tool.OnlyCTA(0, 1, 0)
	env := setup(t, tool, appPTX, "addone", seqThreads, nvbit.WithScheduler(nvbit.SchedulerParallelSM))
	if _, err := env.launchErr(); !errors.Is(err, nvbit.ErrToolCallback) || !strings.Contains(err.Error(), "sequential scheduler") {
		t.Fatalf("OnlyCTA under the parallel scheduler: %v, want the launch refused", err)
	}
}

// TestDeterministicTargeting: the same injection corrupts the same element
// across independent simulator instances — the property campaign manifests
// rely on.
func TestDeterministicTargeting(t *testing.T) {
	want := golden(64)
	pick := func() int {
		tool := New(Injection{Group: GroupAll, Target: 100, Model: ModelFlip, Bit: 1})
		env := setup(t, tool, appPTX, "addone", 64)
		out := env.launch(t)
		for i := range want {
			if out[i] != want[i] {
				return i
			}
		}
		return -1
	}
	a, b := pick(), pick()
	if a != b {
		t.Fatalf("same injection corrupted element %d then %d", a, b)
	}
}

func wideInst(op sass.Opcode, dst sass.Reg) sass.Inst {
	in := sass.NewInst(op)
	in.Dst = dst
	in.Mods = sass.MakeMods(0, true, false, sass.PT)
	return in
}

// TestEligibleEdgeCases probes classify() over hand-built encodings.
func TestEligibleEdgeCases(t *testing.T) {
	mkInst := func(op sass.Opcode, dst sass.Reg) sass.Inst {
		in := sass.NewInst(op)
		in.Dst = dst
		return in
	}
	type wantGroups map[Group]bool
	cases := []struct {
		name string
		in   sass.Inst
		ok   bool
		reg  sass.Reg
		grps wantGroups
	}{
		{"iadd", mkInst(sass.OpIADD, 4), true, 4, wantGroups{GroupGPR: true, GroupAll: true}},
		{"iadd-wide", wideInst(sass.OpIADD, 4), true, 4, wantGroups{GroupFP64: true, GroupAll: true}},
		{"fadd", mkInst(sass.OpFADD, 7), true, 7, wantGroups{GroupGPR: true, GroupFP32: true, GroupAll: true}},
		{"i2f", mkInst(sass.OpI2F, 3), true, 3, wantGroups{GroupGPR: true, GroupFP32: true, GroupAll: true}},
		{"ldg", mkInst(sass.OpLDG, 5), true, 5, wantGroups{GroupGPR: true, GroupLD: true, GroupAll: true}},
		{"ldg-wide", wideInst(sass.OpLDG, 6), true, 6, wantGroups{GroupFP64: true, GroupLD: true, GroupAll: true}},
		{"ldc", mkInst(sass.OpLDC, 2), true, 2, wantGroups{GroupGPR: true, GroupLD: true, GroupAll: true}},
		// ATOM returns the old memory value into its destination register:
		// eligible, and a load for grouping.
		{"atom", mkInst(sass.OpATOM, 8), true, 8, wantGroups{GroupGPR: true, GroupLD: true, GroupAll: true}},
		// Writes to RZ are architecturally discarded.
		{"mov-rz", mkInst(sass.OpMOV, sass.RZ), false, sass.RZ, nil},
		{"iadd-rz", mkInst(sass.OpIADD, sass.RZ), false, sass.RZ, nil},
		// Stores have no register destination (operand 0 is the MREF).
		{"stg", mkInst(sass.OpSTG, sass.RZ), false, sass.RZ, nil},
		{"red", mkInst(sass.OpRED, sass.RZ), false, sass.RZ, nil},
		// Compares write predicates, not GPRs.
		{"isetp", mkInst(sass.OpISETP, sass.RZ), false, sass.RZ, nil},
		// Control flow is excluded outright.
		{"bra", mkInst(sass.OpBRA, 4), false, sass.RZ, nil},
		{"ret", mkInst(sass.OpRET, 4), false, sass.RZ, nil},
		{"exit", mkInst(sass.OpEXIT, 4), false, sass.RZ, nil},
		// No operands at all.
		{"nop", mkInst(sass.OpNOP, 4), false, sass.RZ, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, groups, ok := classify(tc.in)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if reg != tc.reg {
				t.Fatalf("reg = %v, want %v", reg, tc.reg)
			}
			for g := Group(0); g < NumGroups; g++ {
				if groups[g] != tc.grps[g] {
					t.Errorf("group %s = %v, want %v", g, groups[g], tc.grps[g])
				}
			}
		})
	}

	// A guarded write is still an eligible *site*: whether a lane counts is
	// decided dynamically by the site predicate, not statically.
	guarded := sass.NewInst(sass.OpIADD)
	guarded.Dst = 9
	guarded.Pred = 0 // P0
	if _, _, ok := classify(guarded); !ok {
		t.Fatal("predicated destination write should be an eligible site")
	}
}

func TestParseNames(t *testing.T) {
	for g := Group(0); g < NumGroups; g++ {
		got, err := ParseGroup(g.String())
		if err != nil || got != g {
			t.Fatalf("ParseGroup(%q) = %v, %v", g.String(), got, err)
		}
	}
	for m := Model(0); m < NumModels; m++ {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseGroup("bogus"); err == nil {
		t.Fatal("ParseGroup accepted bogus")
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("ParseModel accepted bogus")
	}
}
