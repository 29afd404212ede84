package core

import (
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// The inline-injection mode (InjectInline) must be output-equivalent to the
// trampoline mode while actually splicing bodies: these tests pin the
// differential and the stats partition.

// runInlineWork instruments every instruction of the work kernel with the
// tally under the given mode and returns the app results, the tool's count,
// the JIT stats and the device execution stats.
func runInlineWork(t *testing.T, fam sass.Family, mode InjectionMode) ([]uint32, uint64, JITStats, gpu.Stats) {
	t.Helper()
	tool := &testTool{}
	env := setup(t, fam, tool, WithInjectionMode(mode))
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	count, err := env.nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return env.results(t), count, env.nv.JITStats(), env.api.Device().Stats()
}

// TestInlineInjectionMatchesTrampoline: per-instruction tally instrumentation
// under inline mode must count and compute exactly what trampoline mode does,
// while actually inlining sites and executing strictly fewer instructions —
// inline splices pay no save/restore routine and no CAL/RET pairs, which is
// the residual overhead this mode exists to kill. (Static code size goes the
// other way: inline duplicates the tool body per site, so the win is only
// visible in executed instructions, never in emitted words.)
func TestInlineInjectionMatchesTrampoline(t *testing.T) {
	for _, fam := range []sass.Family{sass.Pascal, sass.Volta} {
		t.Run(fam.String(), func(t *testing.T) {
			trRes, trCount, trStats, trDev := runInlineWork(t, fam, InjectTrampoline)
			inRes, inCount, inStats, inDev := runInlineWork(t, fam, InjectInline)
			if trCount == 0 || inCount != trCount {
				t.Fatalf("counts diverge: trampoline %d, inline %d", trCount, inCount)
			}
			for i := range trRes {
				if inRes[i] != trRes[i] {
					t.Fatalf("result[%d]: trampoline %d, inline %d", i, trRes[i], inRes[i])
				}
			}
			if inStats.InlinedSites == 0 {
				t.Fatal("inline mode inlined no sites")
			}
			if inStats.InlineWords == 0 {
				t.Fatal("inline mode recorded no inline words")
			}
			if trStats.InlinedSites != 0 || trStats.InlineWords != 0 {
				t.Fatalf("trampoline mode reports inline activity: %+v", trStats)
			}
			if got := inStats.InlinedSites + inStats.TrampolinesEmitted; got != trStats.TrampolinesEmitted {
				t.Fatalf("site count diverges: inline mode covered %d sites, trampoline mode %d",
					got, trStats.TrampolinesEmitted)
			}
			if inDev.WarpInstrs >= trDev.WarpInstrs {
				t.Fatalf("inline mode executed %d warp instrs, not below trampoline's %d",
					inDev.WarpInstrs, trDev.WarpInstrs)
			}
		})
	}
}

// TestInlineAllInlineAvgSavedRegsZero pins the stats-partition edge case: a
// plan whose every site inlines emits zero trampolines, and AvgSavedRegs
// must report 0 — not NaN, not a value borrowed from inline sites.
func TestInlineAllInlineAvgSavedRegsZero(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool, WithInjectionMode(InjectInline))
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, err := n.GetInstrs(p.Launch.Func)
		if err != nil {
			panic(err)
		}
		// Only the entry instruction: nothing is live there, so the site
		// always inlines.
		n.InsertCallArgs(insts[0], "tally", IPointBefore, ArgDevPtr(ctr))
	}
	env.launch(t)
	st := env.nv.JITStats()
	if st.InlinedSites != 1 || st.TrampolinesEmitted != 0 {
		t.Fatalf("sites: %d inlined / %d trampolines, want 1/0", st.InlinedSites, st.TrampolinesEmitted)
	}
	if avg := st.AvgSavedRegs(); avg != 0 {
		t.Fatalf("AvgSavedRegs = %v with zero trampolines, want 0", avg)
	}
	if st.SavedRegs != 0 {
		t.Fatalf("SavedRegs = %d for an all-inline run, want 0", st.SavedRegs)
	}
	count, err := env.nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	if count != 256 { // 4 CTAs × 64 threads execute the entry instruction
		t.Fatalf("count = %d, want 256", count)
	}
}

// predAppPTX sets P0 true for threads < 12 (only in the first warp of the
// 64-thread block), then executes a guarded add.
const predAppPTX = `
.visible .entry predapp(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %tid.x;
	setp.lt.u32 %p0, %r0, 12;
	mov.u32 %r1, 0;
	@%p0 add.u32 %r1, %r1, 1;
	ld.param.u64 %rd0, [out];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	st.global.u32 [%rd0], %r1;
	exit;
}
`

// runPredApp counts, under the given mode, the lanes of one 64-thread CTA for
// which P0 (negated if neg) holds at the guarded add, passing the predicate
// to predtally, which returns early where it is false.
func runPredApp(t *testing.T, mode InjectionMode, neg bool) (uint64, JITStats) {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	tool := &testTool{}
	nv, err := Attach(api, tool, WithInjectionMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	ctr, _ := nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if n.IsInstrumented(p.Launch.Func) {
			return
		}
		insts, err := n.GetInstrs(p.Launch.Func)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			if _, _, guarded := i.GetPredicate(); guarded && i.Op() == sass.OpIADD {
				n.InsertCallArgs(i, "predtally", IPointBefore, ArgPred(0, neg), ArgDevPtr(ctr))
			}
		}
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", predAppPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("predapp")
	out, _ := ctx.MemAlloc(4 * 64)
	params, _ := driver.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
	count, err := nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return count, nv.JITStats()
}

// TestInlineGuardedCounts: a guarded site's predicate, passed as an argument
// and read live by the inlined body, selects the same lane sets as the
// trampoline reading it from the save frame, for both polarities.
func TestInlineGuardedCounts(t *testing.T) {
	for _, neg := range []bool{false, true} {
		want := uint64(12)
		if neg {
			want = 52
		}
		tr, _ := runPredApp(t, InjectTrampoline, neg)
		in, st := runPredApp(t, InjectInline, neg)
		if st.InlinedSites != 1 || st.TrampolinesEmitted != 0 {
			t.Fatalf("neg=%v: %d inlined / %d trampolines, want 1/0", neg, st.InlinedSites, st.TrampolinesEmitted)
		}
		if tr != want || in != want {
			t.Fatalf("neg=%v: trampoline %d, inline %d, want %d", neg, tr, in, want)
		}
	}
}
