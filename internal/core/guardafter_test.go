package core

import (
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// selfClobberPTX sets P0 true for threads < 12, then executes an ISETP that
// is guarded by the very predicate it writes: the executing lanes flip P0 to
// false. A call passed the site's guard sees it true for 12 lanes before the
// instruction and for none after it.
const selfClobberPTX = `
.visible .entry selfclobber(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %tid.x;
	setp.lt.u32 %p0, %r0, 12;
	@%p0 setp.ge.u32 %p0, %r0, 100;
	mov.u32 %r1, 0;
	@%p0 add.u32 %r1, %r1, 1;
	ld.param.u64 %rd0, [out];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	st.global.u32 [%rd0], %r1;
	exit;
}
`

// runSelfClobber instruments the self-clobbering ISETP (the only guarded
// ISETP in the kernel) via arm under the given injection mode, launches, and
// returns the tally count plus the per-lane app results.
func runSelfClobber(t *testing.T, mode InjectionMode, arm func(n *NVBit, i *Instr, ctr uint64)) (uint64, []byte) {
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
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			if _, _, guarded := i.GetPredicate(); guarded && i.Op() == sass.OpISETP {
				arm(n, i, ctr)
			}
		}
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("app", selfClobberPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := mod.GetFunction("selfclobber")
	out, _ := ctx.MemAlloc(4 * 64)
	params, _ := driver.PackParams(f, out)
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
	count, err := nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*64)
	if err := ctx.MemcpyDtoH(host, out); err != nil {
		t.Fatal(err)
	}
	return count, host
}

// checkClobberApp asserts the app's own behavior is untouched: after the
// self-clobbering ISETP, P0 is false for every lane, so no lane increments.
func checkClobberApp(t *testing.T, host []byte) {
	t.Helper()
	for lane := 0; lane < 64; lane++ {
		if host[4*lane] != 0 {
			t.Fatalf("lane %d = %d: app must observe the post-instruction predicate (all false)", lane, host[4*lane])
		}
	}
}

// selfClobberCount runs arm under the trampoline and the inline strategy and
// requires both to count want lanes and leave the app's result alone.
func selfClobberCount(t *testing.T, want uint64, arm func(n *NVBit, i *Instr, ctr uint64)) {
	t.Helper()
	for _, mode := range []InjectionMode{InjectTrampoline, InjectInline} {
		count, host := runSelfClobber(t, mode, arm)
		if count != want {
			t.Fatalf("%v: counted %d, want %d", mode, count, want)
		}
		checkClobberApp(t, host)
	}
}

// TestGuardAfterSelfClobberingPredicate: an after-call passed the site's
// guard (ArgSitePred) sees the value the instruction left, false on every
// lane; an unconditional after-call beside it counts all 64.
func TestGuardAfterSelfClobberingPredicate(t *testing.T) {
	selfClobberCount(t, 64, func(n *NVBit, i *Instr, ctr uint64) {
		n.InsertCallArgs(i, "tally", IPointAfter, ArgDevPtr(ctr))
		n.InsertCallArgs(i, "predtally", IPointAfter, ArgSitePred(), ArgDevPtr(ctr))
	})
}

// TestGuardAfterExplicitNegatedPredicate: the negated predicate passed to an
// after-call is true on all 64 lanes, not on the 52 that had !P0 at entry.
func TestGuardAfterExplicitNegatedPredicate(t *testing.T) {
	selfClobberCount(t, 64, func(n *NVBit, i *Instr, ctr uint64) {
		n.InsertCallArgs(i, "predtally", IPointAfter, ArgPred(sass.Pred(0), true), ArgDevPtr(ctr))
	})
}

// TestGuardBeforeUnaffectedBySelfClobber: a before-call passed the site's
// guard sees the 12 lanes it holds for at entry.
func TestGuardBeforeUnaffectedBySelfClobber(t *testing.T) {
	selfClobberCount(t, 12, func(n *NVBit, i *Instr, ctr uint64) {
		n.InsertCallArgs(i, "predtally", IPointBefore, ArgSitePred(), ArgDevPtr(ctr))
	})
}

// TestGuardAfterToolClobberingPredicate: within one bracket, a tool function
// that writes predicates (predtally's own setp lands in the same physical
// bank in a trampoline) must not change what a later call is passed as the
// site's guard — the trampoline reads it from the save frame, and an inlined
// body writes renamed dead predicates.
func TestGuardAfterToolClobberingPredicate(t *testing.T) {
	// The first call counts all 64 lanes (its pred argument is 1, so its
	// setp.eq writes false into P0); the second counts the 12 lanes whose
	// guard held at entry.
	selfClobberCount(t, 64+12, func(n *NVBit, i *Instr, ctr uint64) {
		n.InsertCallArgs(i, "predtally", IPointBefore, ArgConst32(1), ArgDevPtr(ctr))
		n.InsertCallArgs(i, "predtally", IPointBefore, ArgSitePred(), ArgDevPtr(ctr))
	})
}
