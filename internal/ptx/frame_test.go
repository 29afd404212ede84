package ptx_test

import (
	"slices"
	"testing"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
)

// toolFrames is the register count of every registry tool's functions, the
// prefix a trampoline saves around each visit, keyed tool[/policy]:function.
// It is the same on both families.
var toolFrames = map[string]int{
	"cachesim/drop:memaccess_rec":      20,
	"cachesim/block:memaccess_rec":     20,
	"faultinject:fi_count":             8,
	"faultinject:fi_inject":            12,
	"instrcount:instrcount_bbtally":    8,
	"instrcount:instrcount_tally":      6,
	"instrcount-bb:instrcount_bbtally": 8,
	"instrcount-bb:instrcount_tally":   6,
	"itrace/drop:itrace_rec":           18,
	"itrace/block:itrace_rec":          20,
	"memcheck/drop:memaccess_rec":      20,
	"memcheck/block:memaccess_rec":     20,
	"memdiv:memdiv_ifunc":              12,
	"memtrace/drop:memtrace_rec":       22,
	"memtrace/block:memtrace_rec":      22,
	"ophisto:ophisto_tally":            7,
	"ophisto-sampled:ophisto_tally":    7,
}

// argRegs is the set of a function's ABI argument registers.
func argRegs(f *ptx.Func) sass.RegSet {
	var s sass.RegSet
	for _, p := range f.Params {
		s.AddRange(sass.Reg(p.Offset), p.Bytes/4)
	}
	return s
}

// checkFrame fails unless f's frame covers every register its body touches,
// pairs counted, and, unless the body may write its argument registers (a
// call's marshalling and setret do), the body leaves them as the
// marshalling set them.
func checkFrame(t testing.TB, fam sass.Family, f *ptx.Func, writesArgs bool) {
	t.Helper()
	args := argRegs(f)
	for i, in := range f.Insts {
		defs, uses, _, _ := sass.DefUse(in)
		if m := defs.Union(uses).Max(); m >= f.NumRegs {
			t.Errorf("%v: %s: %s at %d touches R%d, above its %d-register frame", fam, f.Name, sass.Format(in), i, m, f.NumRegs)
		}
		if w := defs.Intersect(args); !writesArgs && !w.Empty() {
			t.Errorf("%v: %s: %s at %d writes argument registers %v", fam, f.Name, sass.Format(in), i, w.Regs())
		}
	}
}

// TestToolFuncFrame: a tool function's locals are allocated by live range
// into R0..R3 and the registers above its arguments, never onto an argument
// register. Every registry tool's functions keep their arguments (so the
// Code Generator can leave a constant argument in place across calls), fit
// their frame, and have the frame toolFrames records.
func TestToolFuncFrame(t *testing.T) {
	got := map[string]int{}
	for _, name := range registry.Names() {
		if name == "none" {
			continue
		}
		pols := []string{""}
		if slices.Contains(registry.ReadsOf(name), "policy") {
			pols = []string{channel.Drop.String(), channel.Block.String()}
		}
		for _, pol := range pols {
			inst, err := registry.New(name, registry.Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			key := name
			if pol != "" {
				key += "/" + pol
			}
			for _, src := range toolSources(t, inst.Tool) {
				for _, fam := range goldenFamilies {
					m, err := ptx.Compile(name, src, fam)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range m.Funcs {
						checkFrame(t, fam, f, false)
						k := key + ":" + f.Name
						if n, ok := got[k]; ok && n != f.NumRegs {
							t.Errorf("%s: %d registers on %v, %d on the other family", k, f.NumRegs, fam, n)
						}
						got[k] = f.NumRegs
					}
				}
			}
		}
	}
	var keys []string
	for _, m := range []map[string]int{got, toolFrames} {
		for k := range m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		if g, w := got[k], toolFrames[k]; g != w {
			t.Errorf("%s: NumRegs %d, want %d", k, g, w)
		}
	}
}

// frameFunc compiles a tool module on both families, checks the frame of its
// first function, which keeps its arguments unless it calls, and hands each
// compiled body to check.
func frameFunc(t *testing.T, src string, check func(t *testing.T, f *ptx.Func)) {
	t.Helper()
	for _, fam := range goldenFamilies {
		m, err := ptx.Compile("frame", src, fam)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Funcs[0]
		if f.Entry {
			t.Fatal("toolfunc compiled as an entry")
		}
		checkFrame(t, fam, f, slices.ContainsFunc(f.Insts, func(in sass.Inst) bool { return in.Op == sass.OpCAL }))
		check(t, f)
	}
}

// defOf is the index of the one instruction of f that matches, and fails the
// test unless there is exactly one.
func defOf(t *testing.T, f *ptx.Func, what string, match func(sass.Inst) bool) int {
	t.Helper()
	at := -1
	for i, in := range f.Insts {
		if match(in) {
			if at >= 0 {
				t.Fatalf("two %s in\n%s", what, sass.FormatProgram(f.Insts))
			}
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("no %s in\n%s", what, sass.FormatProgram(f.Insts))
	}
	return at
}

// writers counts the instructions of f that write r.
func writers(f *ptx.Func, r sass.Reg) int {
	n := 0
	for _, in := range f.Insts {
		if defs, _, _, _ := sass.DefUse(in); defs.Has(r) {
			n++
		}
	}
	return n
}

func isMOVI(v int64) func(sass.Inst) bool {
	return func(in sass.Inst) bool { return in.Op == sass.OpMOVI && in.Imm == v }
}

func TestToolFuncDisjointRangesShare(t *testing.T) {
	// Two values that are never live at once take the same pair, and the
	// counter's ld.param is its argument pair: the two REDs read the same
	// registers, and the frame is R0..R1 for the values and R4..R5.
	frameFunc(t, `
.toolfunc twice(.param .u64 ctr)
{
	.reg .u64 %rd<3>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd1, 1;
	red.global.add.u64 [%rd0], %rd1;
	mov.u64 %rd2, 2;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`, func(t *testing.T, f *ptx.Func) {
		var reds []sass.Inst
		for _, in := range f.Insts {
			if in.Op == sass.OpRED {
				reds = append(reds, in)
			}
		}
		if len(reds) != 2 || reds[0] != reds[1] || f.NumRegs != 6 || f.Params[0].Offset != 4 {
			t.Fatalf("NumRegs %d, want 6 with both values in one pair:\n%s", f.NumRegs, sass.FormatProgram(f.Insts))
		}
	})
}

func TestToolFuncLoopCarriedValueKeepsItsRegister(t *testing.T) {
	// k is last read at the top of the loop but is live around the back
	// edge, so the sum defined after that read must not take its register.
	frameFunc(t, `
.toolfunc loop(.param .u64 ctr, .param .u32 n)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	.reg .pred %p<1>;
	ld.param.u64 %rd0, [ctr];
	ld.param.u32 %r0, [n];
	mov.u32 %r1, 9;
	mov.u32 %r3, 0;
L:
	add.u32 %r2, %r1, %r3;
	cvt.u64.u32 %rd1, %r2;
	red.global.add.u64 [%rd0], %rd1;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p0, %r3, %r0;
	@%p0 bra L;
	ret;
}
`, func(t *testing.T, f *ptx.Func) {
		k := f.Insts[defOf(t, f, "MOVI 9", isMOVI(9))].Dst
		if n := writers(f, k); n != 1 {
			t.Fatalf("k's register R%d is written %d times:\n%s", k, n, sass.FormatProgram(f.Insts))
		}
	})
}

func TestToolFuncGuardedDefKeepsRangeOpen(t *testing.T) {
	// x's guarded redefinition may not happen, so x is live from its first
	// definition through it, and y, defined and dead in between, does not
	// take x's register.
	frameFunc(t, `
.toolfunc guarded(.param .u64 ctr, .param .u32 v)
{
	.reg .u32 %r<3>;
	.reg .u64 %rd<2>;
	.reg .pred %p<1>;
	ld.param.u64 %rd0, [ctr];
	ld.param.u32 %r0, [v];
	add.u32 %r1, %r0, 1;
	add.u32 %r2, %r0, 2;
	cvt.u64.u32 %rd1, %r2;
	red.global.add.u64 [%rd0], %rd1;
	setp.eq.u32 %p0, %r0, 0;
	@%p0 mov.u32 %r1, 5;
	cvt.u64.u32 %rd1, %r1;
	red.global.add.u64 [%rd0], %rd1;
	ret;
}
`, func(t *testing.T, f *ptx.Func) {
		first := defOf(t, f, "IADD of 1", func(in sass.Inst) bool { return in.Op == sass.OpIADD && in.Imm == 1 })
		guarded := defOf(t, f, "guarded MOVI 5", isMOVI(5))
		x := f.Insts[first].Dst
		if !f.Insts[guarded].Guarded() || f.Insts[guarded].Dst != x {
			t.Fatalf("x is R%d, its guarded redefinition %s:\n%s", x, sass.Format(f.Insts[guarded]), sass.FormatProgram(f.Insts))
		}
		for _, in := range f.Insts[first+1 : guarded] {
			if defs, _, _, _ := sass.DefUse(in); defs.Has(x) {
				t.Fatalf("%s overwrites x's R%d before its guarded redefinition:\n%s", sass.Format(in), x, sass.FormatProgram(f.Insts))
			}
		}
	})
}

func TestToolFuncLocalLiveAcrossCall(t *testing.T) {
	// The callee may write R4..R15 and its own local area, so the loop
	// counter, live across the call, stays out of both.
	frameFunc(t, `
.toolfunc caller(.param .u64 ctr)
{
	.reg .u32 %r<3>;
	.reg .u64 %rd<2>;
	.reg .pred %p<1>;
	ld.param.u64 %rd0, [ctr];
	mov.u32 %r0, 77;
L:
	call triple, (%r0), (%r1);
	cvt.u64.u32 %rd1, %r1;
	red.global.add.u64 [%rd0], %rd1;
	add.u32 %r0, %r0, 1;
	setp.lt.u32 %p0, %r0, 80;
	@%p0 bra L;
	ret;
}
.func triple(.param .u32 v)
{
	.reg .u32 %t<2>;
	ld.param.u32 %t0, [v];
	mul.lo.u32 %t1, %t0, 3;
	setret.u32 %t1;
	ret;
}
`, func(t *testing.T, f *ptx.Func) {
		i := f.Insts[defOf(t, f, "MOVI 77", isMOVI(77))].Dst
		if i >= 4 && i < 16 || i >= 64 {
			t.Fatalf("the counter lives in R%d, which the callee may write:\n%s", i, sass.FormatProgram(f.Insts))
		}
	})
}
