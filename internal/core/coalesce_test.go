package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/internal/workloads/specaccel"
)

// The visit coalescer's hazard table and differentials. One small kernel per
// rule of coalesce.go: each case instruments it with recording tool functions,
// runs it with visits coalesced and with the one-visit-per-site build the test
// hook keeps, on both HAL families, both schedulers and both the trampoline
// and the inline strategy, and asserts that every call received the same
// values, that the application's memory is the same (and the native run's,
// unless the plan removes an instruction), and that the visits are cut where
// the rule says — so a rule that stopped applying fails here and not only
// where it happens to change a value.

// recSlots is the number of threads a recording buffer has room for per call
// id, recIDs the number of ids; a plan with more calls than that shares ids
// between calls, whose sums and counts still add up the same in both builds.
const (
	recSlots = 128
	recIDs   = 256
)

// recFunc is a recording tool function: call id's slot of the calling thread
// (16 bytes: a sum and a count) is bumped by the value the call received and
// by one. value is the PTX that leaves the value in %rd4; %r3 holds the global
// thread index and %rd2 the slot's address.
func recFunc(name, params, value string) string {
	return `
.toolfunc ` + name + `(.param .u32 id, ` + params + `, .param .u64 buf)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<10>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [id];
	shl.b32 %r4, %r4, 7;
	add.u32 %r4, %r4, %r3;
	mul.wide.u32 %rd0, %r4, 16;
	ld.param.u64 %rd2, [buf];
	add.u64 %rd2, %rd2, %rd0;
` + value + `
	red.global.add.u64 [%rd2], %rd4;
	mov.u64 %rd6, 1;
	red.global.add.u64 [%rd2+8], %rd6;
	ret;
}
`
}

// wideValue is a value for recFunc that holds sixteen registers live at
// once where rec32's holds one: it records 16v+136.
func wideValue() string {
	var b strings.Builder
	b.WriteString("\tld.param.u32 %r5, [v];\n\t.reg .u32 %w<16>;\n")
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&b, "\tadd.u32 %%w%d, %%r5, %d;\n", k, k+1)
	}
	for step := 1; step < 16; step *= 2 {
		for k := 0; k < 16; k += 2 * step {
			fmt.Fprintf(&b, "\tadd.u32 %%w%d, %%w%d, %%w%d;\n", k, k, k+step)
		}
	}
	b.WriteString("\tcvt.u64.u32 %rd4, %w0;")
	return b.String()
}

// hazardToolPTX: rec32/rec64 move freely, and so does recwide, rec32 with a
// bigger working set; recload reads application memory; recctx reads the
// saved context, recatom takes a value back from an atomic and recvote
// exchanges values across the warp, so those three never move; nop is the
// empty function of the transparency runs.
var hazardToolPTX = recFunc("rec32", ".param .u32 v", "\tld.param.u32 %r5, [v];\n\tcvt.u64.u32 %rd4, %r5;") +
	recFunc("recwide", ".param .u32 v", wideValue()) +
	recFunc("rec64", ".param .u64 v", "\tld.param.u64 %rd4, [v];") +
	recFunc("recload", ".param .u64 addr", "\tld.param.u64 %rd8, [addr];\n\tld.global.u32 %r5, [%rd8];\n\tcvt.u64.u32 %rd4, %r5;") +
	recFunc("recctx", ".param .u32 reg", "\tld.param.u32 %r5, [reg];\n\trdreg.b32 %r6, %r5;\n\tcvt.u64.u32 %rd4, %r6;") +
	recFunc("recatom", ".param .u32 v", "\tld.param.u32 %r5, [v];\n\tcvt.u64.u32 %rd4, %r5;\n\tmov.u64 %rd6, 0;\n\tatom.global.add.u64 %rd8, [%rd2+8], %rd6;") +
	recFunc("recvote", ".param .u32 v", "\tld.param.u32 %r5, [v];\n\tsetp.eq.u32 %p0, %r3, %r3;\n\tvote.ballot.b32 %r6, %p0;\n\tpopc.b32 %r6, %r6;\n\tadd.u32 %r5, %r5, %r6;\n\tcvt.u64.u32 %rd4, %r5;") + `
.toolfunc nop()
{
	ret;
}
`

// chainPTX is straight-line code (one basic block) in which each hazard has
// its instruction: B reads what A writes, D is guarded by what C writes, the
// store F is followed by a reload of the same word, a reduction on it and a
// second reload, and G is guarded by a predicate written two instructions up.
const chainPTX = `
.visible .entry k(.param .u64 data)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<6>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r0, %r0, %r1, %r2;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r3, [%rd0];
	add.u32 %r4, %r3, 1;              // A
	add.u32 %r5, %r4, %r3;            // B
	setp.lt.u32 %p0, %r0, 40;         // C
	@%p0 add.u32 %r5, %r5, 7;         // D
	setp.ge.u32 %p1, %r5, 9;          // E
	st.global.u32 [%rd0], %r5;        // F
	ld.global.u32 %r6, [%rd0];        // reload
	red.global.add.u32 [%rd0], 3;
	ld.global.u32 %r7, [%rd0];        // second reload
	add.u32 %r6, %r6, %r7;
	@%p1 st.global.u32 [%rd0+1024], %r6;  // G
	exit;
}
`

// loopPTX leaves early under a guarded EXIT that part of a warp takes, and
// loops a data-dependent number of times, so its backward branch is taken by
// some lanes and not by others; LOOP is a branch target in mid-function.
const loopPTX = `
.visible .entry k(.param .u64 data)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	setp.ge.u32 %p0, %r3, 100;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r5, [%rd0];
	and.b32 %r6, %r3, 3;
	add.u32 %r6, %r6, 1;
	mov.u32 %r7, 0;
LOOP:
	add.u32 %r7, %r7, %r5;
	sub.u32 %r6, %r6, 1;
	setp.gt.u32 %p0, %r6, 0;
	@%p0 bra LOOP;
	st.global.u32 [%rd0], %r7;
	exit;
}
`

// barPTX reverses each CTA's words through shared memory: the loads after
// the barrier read what other warps stored before it.
const barPTX = `
.visible .entry k(.param .u64 data)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<4>;
	.shared .b8 tile[256];
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r4, [%rd0];
	shl.b32 %r5, %r2, 2;
	st.shared.u32 [%r5], %r4;
	bar.sync 0;
	sub.u32 %r6, %r1, %r2;
	sub.u32 %r6, %r6, 1;
	shl.b32 %r6, %r6, 2;
	ld.shared.u32 %r7, [%r6];
	st.global.u32 [%rd0], %r7;
	exit;
}
`

// longPTX is blocks basic blocks of per straight-line additions each.
func longPTX(blocks, per int) string {
	var b strings.Builder
	b.WriteString(".visible .entry k(.param .u64 data)\n{\n\t.reg .u32 %r<6>;\n\t.reg .u64 %rd<4>;\n")
	b.WriteString("\tmov.u32 %r0, %ctaid.x;\n\tmov.u32 %r1, %ntid.x;\n\tmov.u32 %r2, %tid.x;\n\tmad.lo.u32 %r3, %r0, %r1, %r2;\n")
	b.WriteString("\tld.param.u64 %rd0, [data];\n\tmul.wide.u32 %rd2, %r3, 4;\n\tadd.u64 %rd0, %rd0, %rd2;\n\tld.global.u32 %r4, [%rd0];\n")
	for k := 0; k < blocks; k++ {
		fmt.Fprintf(&b, "\tbra L%d;\nL%d:\n", k, k)
		for j := 0; j < per; j++ {
			fmt.Fprintf(&b, "\tadd.u32 %%r4, %%r4, %d;\n", j%7+1)
		}
	}
	b.WriteString("\tst.global.u32 [%rd0], %r4;\n\texit;\n}\n")
	return b.String()
}

// deadArgPTX writes dead values into registers the application never reads
// again, then runs a straight line of additions: a visit whose calls each
// pass one of those registers.
func deadArgPTX(dead int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry k(.param .u64 data)\n{\n\t.reg .u32 %%r<%d>;\n\t.reg .u64 %%rd<4>;\n", dead+8)
	b.WriteString("\tmov.u32 %r0, %ctaid.x;\n\tmov.u32 %r1, %ntid.x;\n\tmov.u32 %r2, %tid.x;\n\tmad.lo.u32 %r3, %r0, %r1, %r2;\n")
	b.WriteString("\tld.param.u64 %rd0, [data];\n\tmul.wide.u32 %rd2, %r3, 4;\n\tadd.u64 %rd0, %rd0, %rd2;\n")
	for k := 0; k < dead; k++ {
		fmt.Fprintf(&b, "\tmov.u32 %%r%d, %d;\n", k+8, k+100)
	}
	b.WriteString("\tld.global.u32 %r4, [%rd0];\n")
	for k := 0; k < dead; k++ {
		fmt.Fprintf(&b, "\tadd.u32 %%r4, %%r4, %d;\n", k+1)
	}
	b.WriteString("\tst.global.u32 [%rd0], %r4;\n\texit;\n}\n")
	return b.String()
}

// planner is what a case's plan inserts calls through.
type planner struct {
	nv    *core.NVBit
	insts []*core.Instr
	buf   uint64
	ids   uint32
	// mustStart and mustJoin are the words the case expects to begin a visit
	// and to lie inside one begun earlier.
	mustStart, mustJoin []int
}

// rec inserts a call of the named recording function with a fresh id.
func (p *planner) rec(i *core.Instr, where core.IPoint, fn string, v core.CallArg) {
	p.nv.InsertCallArgs(i, fn, where, core.ArgConst32(p.ids%recIDs), v, core.ArgDevPtr(p.buf))
	p.ids++
}

// recAll gives every instruction a before-call of rec32 with a constant, except
// where special inserts the instruction's calls itself.
func (p *planner) recAll(special func(k int, i *core.Instr) bool) {
	for k, i := range p.insts {
		if special == nil || !special(k, i) {
			p.rec(i, core.IPointBefore, "rec32", core.ArgConst32(uint32(k)))
		}
	}
}

// find returns the index of the nth instruction (from 0) that match accepts.
func (p *planner) find(nth int, match func(in sass.Inst) bool) int {
	for k, i := range p.insts {
		if match(i.Raw()) {
			if nth == 0 {
				return k
			}
			nth--
		}
	}
	panic("hazard kernel has no such instruction")
}

func (p *planner) op(nth int, op sass.Opcode) int {
	return p.find(nth, func(in sass.Inst) bool { return in.Op == op })
}

type hazardCase struct {
	name        string
	ptx         string
	grid, block int
	plan        func(p *planner)
	// changesApp: the plan itself changes what the kernel computes (it removes
	// an instruction), so only the two builds are compared, not the native run.
	changesApp bool
	// perSite: no call of the plan may move, so every site is its own visit.
	perSite bool
	// warpWide: the plan's body votes across the warp, so what it records
	// depends on which lanes min-PC scheduling brings to it together, and
	// that on where code lies — not the same for trampolines and inline
	// splices, so only the two builds of one strategy are compared.
	warpWide bool
	// trampolineOnly: the case is about where trampolines land in code
	// memory, and its recording body fits no dead-register pool of the
	// kernel, so an inline build would be the trampoline build again
	// (TestCoalesceTransparency splices the same kernel inline).
	trampolineOnly bool
	// check is what else the case asserts of the two trampoline builds, and
	// checkInline of the two inline builds.
	check, checkInline func(t *testing.T, perSite, merged hazardRun)
}

var hazardCases = []hazardCase{
	{name: "argument register written earlier", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		a := p.op(0, sass.OpIADD) + 1 // the 64-bit address add comes first
		b := a + 1
		p.recAll(func(k int, i *core.Instr) bool {
			if k == b {
				p.rec(i, core.IPointBefore, "rec32", core.ArgReg(int(p.insts[a].Raw().Dst)))
			}
			return k == b
		})
		p.mustStart = []int{b}
		p.mustJoin = []int{a, b + 1, b + 2}
	}},
	{name: "guard predicate written earlier", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		e, f := p.op(1, sass.OpISETP), p.op(0, sass.OpSTG)
		g := p.find(0, func(in sass.Inst) bool { return in.Op == sass.OpSTG && in.Guarded() })
		p.recAll(func(k int, i *core.Instr) bool {
			switch k {
			case f:
				p.rec(i, core.IPointBefore, "rec32", core.ArgPred(p.insts[e].Raw().Mods.Aux(), false))
			case g:
				p.rec(i, core.IPointBefore, "rec32", core.ArgSitePred())
			default:
				return false
			}
			return true
		})
		// F passes the predicate E writes, so F starts a visit. G's guard is
		// that predicate, written before F's visit began, so G's call joins
		// it.
		p.mustStart = []int{f}
		p.mustJoin = []int{f + 1, g}
	}},
	{name: "guard predicate written by the visit's first instruction", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		c := p.op(0, sass.OpISETP)
		p.recAll(func(k int, i *core.Instr) bool {
			switch k {
			case c:
				// Reads the predicate C writes: C starts a visit whose one
				// bracket sits after it, where D's before-calls sit too.
				p.rec(i, core.IPointAfter, "rec32", core.ArgPred(i.Raw().Mods.Aux(), false))
			case c + 1:
				// And so may D's guard, which C writes.
				p.rec(i, core.IPointBefore, "rec32", core.ArgSitePred())
			default:
				return false
			}
			return true
		})
		p.mustStart = []int{c}
		p.mustJoin = []int{c + 1, c + 2}
	}},
	{name: "ArgSitePred and ArgMRefAddr of a later site", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		d := p.find(0, func(in sass.Inst) bool { return in.Op == sass.OpIADD && in.Guarded() })
		f := p.op(0, sass.OpSTG)
		g := p.op(1, sass.OpSTG)
		p.recAll(func(k int, i *core.Instr) bool {
			switch k {
			case d:
				p.rec(i, core.IPointBefore, "rec32", core.ArgSitePred())
			case f:
				p.rec(i, core.IPointBefore, "rec64", core.ArgMRefAddr())
			case g:
				p.rec(i, core.IPointBefore, "rec64", core.ArgMRefAddr())
				p.rec(i, core.IPointBefore, "rec32", core.ArgSitePred())
			default:
				return false
			}
			return true
		})
		// D's predicate is written just before it; F's base register pair was
		// last written long before D, so its address call joins D's visit; G
		// reads a predicate written inside that visit.
		p.mustStart = []int{d, g}
		p.mustJoin = []int{f}
	}},
	{name: "branch target and relocated branch and guarded EXIT", ptx: loopPTX, grid: 2, block: 64, plan: func(p *planner) {
		p.recAll(nil)
		bra, exit := p.op(0, sass.OpBRA), p.op(0, sass.OpEXIT)
		p.mustStart = []int{bra + int(p.insts[bra].Raw().Imm) + 1} // LOOP
		p.mustJoin = []int{bra, exit}
	}},
	{name: "values at a relocated branch and a guarded EXIT", ptx: loopPTX, grid: 2, block: 64, plan: func(p *planner) {
		// Every call reads a register its instruction uses and, where the
		// instruction is guarded, its guard.
		for _, i := range p.insts {
			in := i.Raw()
			if in.Src1 != sass.RZ && in.Op != sass.OpBRA && in.Op != sass.OpEXIT && in.Op != sass.OpS2R && in.Op != sass.OpLDC && in.Op != sass.OpMOVI {
				p.rec(i, core.IPointBefore, "rec32", core.ArgReg(int(in.Src1)))
			}
			if in.Guarded() {
				p.rec(i, core.IPointBefore, "rec32", core.ArgSitePred())
			}
			p.rec(i, core.IPointBefore, "rec32", core.ArgConst32(5))
		}
	}},
	{name: "BAR inside the run", ptx: barPTX, grid: 2, block: 64, plan: func(p *planner) {
		p.recAll(nil)
		bar := p.op(0, sass.OpBAR)
		p.mustStart = []int{bar + 1}
		p.mustJoin = []int{bar, bar + 2}
	}},
	{name: "RemoveOrig in a run", ptx: chainPTX, grid: 2, block: 64, changesApp: true, plan: func(p *planner) {
		p.recAll(nil)
		d := p.find(0, func(in sass.Inst) bool { return in.Op == sass.OpIADD && in.Guarded() })
		p.nv.RemoveOrig(p.insts[d])
		p.mustJoin = []int{d, d + 1}
	}},
	{name: "after and before calls of adjacent instructions share a bracket", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		a := p.op(0, sass.OpIADD) + 1
		r := core.ArgReg(int(p.insts[a].Raw().Dst))
		p.recAll(func(k int, i *core.Instr) bool {
			if k == a {
				p.rec(i, core.IPointBefore, "rec32", core.ArgConst32(2))
				p.rec(i, core.IPointAfter, "rec32", r) // what A wrote: cannot run before A
			}
			if k == a+1 {
				p.rec(i, core.IPointBefore, "rec32", r) // sits where A's after-call does
			}
			return k == a || k == a+1
		})
		p.mustStart = []int{a}
		p.mustJoin = []int{a + 1, a + 2}
	}},
	{name: "after-call hoisted over its own instruction", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		c := p.op(0, sass.OpISETP)
		p.recAll(func(k int, i *core.Instr) bool {
			if k == c {
				// The before-call reads what the instruction before C wrote, so
				// C starts a visit; the after-call reads nothing C writes, so
				// it runs in the same bracket, before C.
				p.rec(i, core.IPointBefore, "rec32", core.ArgReg(int(p.insts[c-1].Raw().Dst)))
				p.rec(i, core.IPointAfter, "rec32", core.ArgReg(int(i.Raw().Src1)))
			}
			return k == c
		})
		p.mustStart = []int{c}
		p.mustJoin = []int{c + 1}
	}, check: func(t *testing.T, perSite, merged hazardRun) {
		// The coalesced build has one bracket per visit: the tally's frame,
		// which at C's visit also holds the registers both its calls read.
		regs := toolRegs(t, "rec32")
		c := slices.IndexFunc(merged.raw, func(in sass.Inst) bool { return in.Op == sass.OpISETP })
		want := (merged.stats.Visits-1)*regs + max(regs, int(merged.raw[c-1].Dst)+1, int(merged.raw[c].Src1)+1)
		if merged.stats.SavedRegs != want {
			t.Errorf("%d registers saved over %d visits of a %d-register function, want %d: one bracket each", merged.stats.SavedRegs, merged.stats.Visits, regs, want)
		}
	}},
	{name: "a loading body next to STG and RED", ptx: chainPTX, grid: 2, block: 64, plan: func(p *planner) {
		f, red := p.op(0, sass.OpSTG), p.op(0, sass.OpRED)
		p.recAll(func(k int, i *core.Instr) bool {
			if k == f+1 || k == red+1 {
				p.rec(i, core.IPointBefore, "recload", core.ArgMRefAddr())
			}
			return k == f+1 || k == red+1
		})
		// Each reload's call reads the word the instruction before it wrote.
		p.mustStart = []int{f + 1, red + 1}
		p.mustJoin = []int{f, red}
	}},
	{name: "a body that reads the saved context never moves", ptx: chainPTX, grid: 2, block: 64, perSite: true, plan: func(p *planner) {
		for k, i := range p.insts {
			p.rec(i, core.IPointBefore, "recctx", core.ArgConst32(uint32(k%4)))
		}
	}},
	{name: "a body with a value-returning atomic never moves", ptx: chainPTX, grid: 2, block: 64, perSite: true, plan: func(p *planner) {
		for k, i := range p.insts {
			p.rec(i, core.IPointBefore, "recatom", core.ArgConst32(uint32(k)))
		}
	}},
	{name: "a warp-wide body never moves", ptx: loopPTX, grid: 2, block: 64, perSite: true, warpWide: true, plan: func(p *planner) {
		for k, i := range p.insts {
			p.rec(i, core.IPointBefore, "recvote", core.ArgConst32(uint32(k)))
		}
	}},
	{name: "a 300-instruction block and trampolines past a chunk's end", ptx: longPTX(6, 300), grid: 1, block: 32, trampolineOnly: true, plan: func(p *planner) {
		// Six trampolines of some 1 200 words each: the fourth does not fit
		// what is left of the first 4096-word chunk.
		p.recAll(nil)
		p.mustJoin = []int{p.op(0, sass.OpBRA) + 300}
	}, check: func(t *testing.T, _, merged hazardRun) {
		if w := merged.stats.TrampolineWords; w <= 4096 || w/merged.stats.Visits >= 4096/2 {
			t.Errorf("%d trampoline words in %d visits, want more than one chunk of trampolines that each fit one", w, merged.stats.Visits)
		}
	}},
	{name: "one trampoline longer than a chunk", ptx: longPTX(1, 1500), grid: 1, block: 32, trampolineOnly: true, plan: func(p *planner) {
		p.recAll(nil)
		p.mustJoin = []int{p.op(0, sass.OpBRA) + 1500}
	}, check: func(t *testing.T, _, merged hazardRun) {
		if w := merged.stats.TrampolineWords; w <= 4096 || merged.stats.Visits > 3 {
			t.Errorf("%d trampoline words in %d visits, want one trampoline past a chunk's 4096 words", w, merged.stats.Visits)
		}
	}},
	{name: "marshalling reads of a visit exhaust the dead registers", ptx: deadArgPTX(24), grid: 2, block: 64, plan: func(p *planner) {
		// Each addition's call passes a register the application never reads
		// again, so it stays out of the inline pool only until its call: at
		// the k-th addition 24-k of them are still kept. recwide's working
		// set is bigger than the first addition's pool: alone, the early
		// additions cannot inline and the late ones can; their visit, whose
		// calls all rename into the pool of its first instruction, cannot.
		first := p.op(0, sass.OpLDG) + 1
		p.recAll(func(k int, i *core.Instr) bool {
			if k < first || k >= first+24 {
				return false
			}
			mov := p.find(0, func(in sass.Inst) bool { return in.Op == sass.OpMOVI && in.Imm == int64(100+k-first) })
			p.rec(i, core.IPointBefore, "recwide", core.ArgReg(int(p.insts[mov].Raw().Dst)))
			return true
		})
		p.mustStart = []int{first}
		for k := 1; k < 24; k++ {
			p.mustJoin = append(p.mustJoin, first+k)
		}
	}, checkInline: func(t *testing.T, perSite, merged hazardRun) {
		cover := 0
		for _, v := range merged.visits {
			if merged.raw[v[0]].Op == sass.OpIADD && v[1] >= 24 {
				cover = v[1]
			}
		}
		if n := perSite.stats.TrampolinesEmitted; n == 0 || n >= 24 {
			t.Errorf("per-site build: %d sites in trampolines, want some of the 24 additions and not all", n)
		}
		if merged.stats.Visits != 1 || merged.stats.TrampolinesEmitted != cover || merged.stats.InlinedSites != len(merged.raw)-cover {
			t.Errorf("coalesced build: %d sites in %d trampolines, %d inlined, want the %d of the additions' visit in one and the rest inlined",
				merged.stats.TrampolinesEmitted, merged.stats.Visits, merged.stats.InlinedSites, cover)
		}
	}},
}

// toolRegs is the register count of one of hazardToolPTX's functions, which
// the two families compile alike.
func toolRegs(t *testing.T, name string) int {
	t.Helper()
	m, err := ptx.Compile("hazard", hazardToolPTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		if f.Name == name {
			return f.NumRegs
		}
	}
	t.Fatalf("no tool function %s", name)
	return 0
}

// hazardTool runs a plan the first time a kernel is launched.
type hazardTool struct {
	buf  uint64
	plan func(n *core.NVBit, f *driver.Function)
}

func (t *hazardTool) AtInit(n *core.NVBit) {
	if err := n.RegisterToolPTX(hazardToolPTX); err != nil {
		panic(err)
	}
}
func (t *hazardTool) AtTerm(*core.NVBit) {}
func (t *hazardTool) AtCUDACall(n *core.NVBit, exit bool, cbid driver.CBID, _ string, p *driver.CallParams) {
	if !exit && cbid == driver.CBLaunchKernel && !n.IsInstrumented(p.Launch.Func) {
		t.plan(n, p.Launch.Func)
	}
}

// hazardRun is what one execution of a hazard kernel left behind.
type hazardRun struct {
	app, rec []byte
	visits   [][2]int
	raw      []sass.Inst
	stats    core.JITStats
	err      error // the launch's
	sticky   error // what the context refuses further work with afterwards
}

// emptyBeforeAfter is the transparency plan: the empty function before and
// after every instruction.
func emptyBeforeAfter(p *planner) {
	for _, i := range p.insts {
		p.nv.InsertCall(i, "nop", core.IPointBefore)
		p.nv.InsertCall(i, "nop", core.IPointAfter)
	}
}

// runHazard runs c's kernel once: natively when plan is nil, else under the
// plan, with one trampoline per site when perSite is set.
func runHazard(t *testing.T, c *hazardCase, fam sass.Family, sched gpu.SchedulerKind, mode core.InjectionMode, plan func(*planner), perSite bool) hazardRun {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(fam))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	var run hazardRun
	var nv *core.NVBit
	var fn *driver.Function
	tool := &hazardTool{}
	if plan != nil {
		if nv, err = core.Attach(api, tool, core.WithScheduler(sched), core.WithInjectionMode(mode)); err != nil {
			t.Fatal(err)
		}
		nv.SetPerSiteVisits(perSite)
		tool.plan = func(n *core.NVBit, f *driver.Function) {
			insts, err := n.GetInstrs(f)
			if err != nil {
				panic(err)
			}
			p := &planner{nv: n, insts: insts, buf: tool.buf}
			plan(p)
			if run.visits, err = n.VisitSpans(f); err != nil {
				panic(err)
			}
			for _, i := range insts {
				run.raw = append(run.raw, i.Raw())
			}
			if !perSite && !c.perSite {
				checkVisits(t, run.raw, run.visits, p)
			}
		}
	} else {
		api.Device().SetScheduler(sched)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("hazard.ptx", c.ptx)
	if err != nil {
		t.Fatal(err)
	}
	if fn, err = mod.GetFunction("k"); err != nil {
		t.Fatal(err)
	}
	threads := c.grid * c.block
	host := make([]byte, 4*(threads+256+64))
	for k := range host {
		host[k] = byte(k*7 + 1)
	}
	for k := 3; k < len(host); k += 4 {
		host[k] = 0 // small words, so sums of them do not wrap
	}
	data, err := ctx.MemAlloc(uint64(len(host)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyHtoD(data, host); err != nil {
		t.Fatal(err)
	}
	run.rec = make([]byte, 16*recSlots*recIDs)
	if plan != nil {
		if tool.buf, err = nv.Malloc(uint64(len(run.rec))); err != nil {
			t.Fatal(err)
		}
	}
	params, err := driver.PackParams(fn, data)
	if err != nil {
		t.Fatal(err)
	}
	run.err = ctx.LaunchKernel(fn, gpu.D1(c.grid), gpu.D1(c.block), 0, params)
	_, run.sticky = ctx.MemAlloc(16)
	// Read through the device: a faulted context refuses copies.
	run.app = make([]byte, len(host))
	if err := api.Device().Read(data, run.app); err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := api.Device().Read(tool.buf, run.rec); err != nil {
			t.Fatal(err)
		}
		run.stats = nv.JITStats()
	}
	return run
}

// checkVisits holds a coalesced plan to what is true of every one — visits
// tile the instrumented instructions in order and none holds a block leader
// past its first instruction — and to the case's own expectations.
func checkVisits(t *testing.T, raw []sass.Inst, visits [][2]int, p *planner) {
	t.Helper()
	blocks, ok := sass.BasicBlocks(raw)
	if !ok {
		t.Fatal("hazard kernel has indirect control flow")
	}
	leader := make(map[int]bool)
	for _, b := range blocks {
		leader[b.Start] = true
	}
	starts := make(map[int]bool)
	next := 0
	for _, v := range visits {
		if v[0] != next || v[1] < 1 {
			t.Fatalf("visit %v does not follow the one ending at word %d", v, next)
		}
		starts[v[0]] = true
		for k := v[0] + 1; k < v[0]+v[1]; k++ {
			if leader[k] {
				t.Errorf("visit %v holds block leader %d", v, k)
			}
		}
		next = v[0] + v[1]
	}
	if next != len(raw) {
		t.Fatalf("visits end at word %d of %d", next, len(raw))
	}
	for _, k := range p.mustStart {
		if !starts[k] {
			t.Errorf("word %d (%s) joined the visit before it, want it to start one", k, sass.Format(raw[k]))
		}
	}
	for _, k := range p.mustJoin {
		if starts[k] {
			t.Errorf("word %d (%s) starts a visit, want it inside the one before it", k, sass.Format(raw[k]))
		}
	}
}

var (
	hazardFamilies = []sass.Family{sass.Kepler, sass.Volta}
	hazardScheds   = []gpu.SchedulerKind{gpu.SchedulerSequential, gpu.SchedulerParallelSM}
)

func TestCoalesceHazards(t *testing.T) {
	for ci := range hazardCases {
		c := &hazardCases[ci]
		for _, fam := range hazardFamilies {
			for _, sched := range hazardScheds {
				fam, sched := fam, sched
				t.Run(fmt.Sprintf("%s/%v/%v", c.name, fam, sched), func(t *testing.T) {
					t.Parallel()
					native := runHazard(t, c, fam, sched, core.InjectTrampoline, nil, false)
					var tramp hazardRun
					for _, mode := range []core.InjectionMode{core.InjectTrampoline, core.InjectInline} {
						if mode == core.InjectInline && c.trampolineOnly {
							break
						}
						perSite := runHazard(t, c, fam, sched, mode, c.plan, true)
						merged := runHazard(t, c, fam, sched, mode, c.plan, false)
						if native.err != nil || perSite.err != nil || merged.err != nil {
							t.Fatalf("%v: launch: native %v, per-site %v, coalesced %v", mode, native.err, perSite.err, merged.err)
						}
						if !bytes.Equal(merged.rec, perSite.rec) {
							t.Errorf("%v: calls received different values: %s", mode, firstRecDiff(merged.rec, perSite.rec))
						}
						if !bytes.Equal(merged.app, perSite.app) {
							t.Errorf("%v: application memory differs between the coalesced and the per-site build", mode)
						}
						if !c.changesApp && !bytes.Equal(merged.app, native.app) {
							t.Errorf("%v: application memory differs from the native run", mode)
						}
						sites := len(merged.raw)
						if mode == core.InjectInline {
							if !c.warpWide && !bytes.Equal(merged.rec, tramp.rec) || !bytes.Equal(merged.app, tramp.app) {
								t.Errorf("inline build differs from the trampoline build: %s", firstRecDiff(merged.rec, tramp.rec))
							}
							if perSite.stats.InlinedSites+perSite.stats.Visits != sites || merged.stats.InlinedSites+merged.stats.TrampolinesEmitted != sites {
								t.Errorf("inline: per-site build served %d+%d sites, coalesced build %d+%d, want %d both",
									perSite.stats.InlinedSites, perSite.stats.Visits, merged.stats.InlinedSites, merged.stats.TrampolinesEmitted, sites)
							}
							if c.checkInline != nil {
								c.checkInline(t, perSite, merged)
							}
							continue
						}
						tramp = merged
						if bytes.Equal(merged.rec, make([]byte, len(merged.rec))) {
							t.Error("no call recorded anything")
						}
						if perSite.stats.Visits != sites || merged.stats.TrampolinesEmitted != sites {
							t.Errorf("per-site build made %d visits, coalesced build served %d sites, want %d both", perSite.stats.Visits, merged.stats.TrampolinesEmitted, sites)
						}
						if c.perSite != (merged.stats.Visits == sites) {
							t.Errorf("%d visits for %d sites", merged.stats.Visits, sites)
						}
						if c.check != nil {
							c.check(t, perSite, merged)
						}
					}
				})
			}
		}
	}
}

// firstRecDiff names the first recording slot two buffers differ in.
func firstRecDiff(a, b []byte) string {
	for k := 0; k < len(a); k += 16 {
		if !bytes.Equal(a[k:k+16], b[k:k+16]) {
			return fmt.Sprintf("call %d, thread %d: % x (coalesced) and % x (per-site)", k/16/recSlots, k/16%recSlots, a[k:k+16], b[k:k+16])
		}
	}
	return "none"
}

// TestCoalesceTransparency: the empty tool function before and after every
// instruction of every hazard kernel leaves the application's memory as the
// native run does, in trampoline, full-save and inline mode alike.
func TestCoalesceTransparency(t *testing.T) {
	for ci := range hazardCases {
		c := &hazardCases[ci]
		if ci > 0 && c.ptx == hazardCases[ci-1].ptx {
			continue // one run per kernel
		}
		for _, fam := range hazardFamilies {
			for _, sched := range hazardScheds {
				fam, sched := fam, sched
				t.Run(fmt.Sprintf("%s/%v/%v", c.name, fam, sched), func(t *testing.T) {
					t.Parallel()
					native := runHazard(t, c, fam, sched, core.InjectTrampoline, nil, false)
					for _, mode := range []core.InjectionMode{core.InjectTrampoline, core.InjectFullSave, core.InjectInline} {
						plain := hazardCase{ptx: c.ptx, grid: c.grid, block: c.block}
						got := runHazard(t, &plain, fam, sched, mode, emptyBeforeAfter, false)
						if got.err != nil || native.err != nil {
							t.Fatalf("%v: launch: %v, native %v", mode, got.err, native.err)
						}
						if !bytes.Equal(got.app, native.app) {
							t.Errorf("%v: application memory differs from the native run", mode)
						}
						if mode == core.InjectInline {
							// The empty function needs no register: every visit inlines.
							if sites := len(got.raw); got.stats.InlinedSites != sites || len(got.visits) >= sites {
								t.Errorf("inline: %d of %d sites inlined in %d visits, want all of them, coalesced", got.stats.InlinedSites, sites, len(got.visits))
							}
						} else if got.stats.Visits >= got.stats.TrampolinesEmitted {
							t.Errorf("%v: %d visits for %d sites, want the empty function coalesced", mode, got.stats.Visits, got.stats.TrampolinesEmitted)
						}
					}
				})
			}
		}
	}
}

// afterArgPTX sets P0 from the thread's index (S) and adds to the index in
// place (W); 24 registers written once and never read again leave the inline
// strategy room.
var afterArgPTX = func() string {
	var b strings.Builder
	b.WriteString(".visible .entry k(.param .u64 data)\n{\n\t.reg .u32 %r<32>;\n\t.reg .u64 %rd<4>;\n\t.reg .pred %p<2>;\n")
	b.WriteString("\tmov.u32 %r0, %ctaid.x;\n\tmov.u32 %r1, %ntid.x;\n\tmov.u32 %r2, %tid.x;\n\tmad.lo.u32 %r3, %r0, %r1, %r2;\n")
	b.WriteString("\tld.param.u64 %rd0, [data];\n\tmul.wide.u32 %rd2, %r3, 4;\n\tadd.u64 %rd0, %rd0, %rd2;\n")
	for k := 8; k < 32; k++ {
		fmt.Fprintf(&b, "\tmov.u32 %%r%d, %d;\n", k, k)
	}
	b.WriteString("\tsetp.lt.u32 %p0, %r3, 40;\n\tadd.u32 %r3, %r3, 1000;\n\t@%p0 add.u32 %r3, %r3, 1;\n")
	b.WriteString("\tst.global.u32 [%rd0], %r3;\n\texit;\n}\n")
	return b.String()
}()

// TestAfterCallArgumentsSeeTheInstruction: an after-call's ArgPred of the
// predicate its instruction writes, and ArgReg of the register it writes,
// receive the values the instruction left, in trampoline and inline mode and
// in the per-site and the coalesced build alike — a trampoline's after bracket
// saves its frame after the relocated instruction, and inline code reads the
// live registers there.
func TestAfterCallArgumentsSeeTheInstruction(t *testing.T) {
	c := &hazardCase{ptx: afterArgPTX, grid: 2, block: 64}
	var s, w uint32 // the two after-calls' ids
	plan := func(p *planner) {
		si := p.op(0, sass.OpISETP)
		wi := p.find(0, func(in sass.Inst) bool { return in.Op == sass.OpIADD && in.Imm == 1000 })
		p.recAll(func(k int, i *core.Instr) bool {
			switch k {
			case si:
				s = p.ids
				p.rec(i, core.IPointAfter, "rec32", core.ArgPred(i.Raw().Mods.Aux(), false))
			case wi:
				w = p.ids
				p.rec(i, core.IPointAfter, "rec32", core.ArgReg(int(i.Raw().Dst)))
			default:
				return false
			}
			return true
		})
	}
	for _, fam := range hazardFamilies {
		for _, mode := range []core.InjectionMode{core.InjectTrampoline, core.InjectInline} {
			for _, perSite := range []bool{true, false} {
				run := runHazard(t, c, fam, gpu.SchedulerSequential, mode, plan, perSite)
				if run.err != nil {
					t.Fatalf("%v/%v: %v", fam, mode, run.err)
				}
				if sites := len(run.raw); mode == core.InjectInline && run.stats.InlinedSites != sites {
					t.Errorf("%v/%v (per-site %v): %d of %d sites inlined, want all", fam, mode, perSite, run.stats.InlinedSites, sites)
				}
				for tid := 0; tid < c.grid*c.block; tid++ {
					got := func(id uint32) uint64 { return binary.LittleEndian.Uint64(run.rec[16*(int(id)*recSlots+tid):]) }
					var p uint64
					if tid < 40 {
						p = 1
					}
					if got(s) != p || got(w) != uint64(tid+1000) {
						t.Fatalf("%v/%v (per-site %v), thread %d: ArgPred %d, ArgReg %d after the instruction, want %d and %d",
							fam, mode, perSite, tid, got(s), got(w), p, tid+1000)
					}
				}
			}
		}
	}
}

// faultPTX's third instruction of the block after SKIP loads through a null
// pointer in every lane; the block's first two are harmless.
const faultPTX = `
.visible .entry k(.param .u64 data)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	mov.u32 %r0, %tid.x;
	ld.param.u64 %rd0, [data];
	st.global.u32 [%rd0], %r0;
	bra SKIP;
SKIP:
	add.u32 %r1, %r0, 1;
	mov.u64 %rd2, 8;
	ld.global.u32 %r2, [%rd2];
	st.global.u32 [%rd0+4], %r2;
	exit;
}
`

// TestFaultInsideVisit: an instruction that faults in the middle of a
// coalesced visit reports what it reports in the per-site build — kind, lane,
// disassembly — poisons the context the same way and leaves the application's
// memory the same. What differs, and is documented (docs/faults.md), is that
// the calls of the visit's later sites have already run.
func TestFaultInsideVisit(t *testing.T) {
	c := &hazardCase{ptx: faultPTX, grid: 1, block: 32}
	var faultAt int
	plan := func(p *planner) {
		p.recAll(nil)
		faultAt = p.op(0, sass.OpLDG)
		p.mustJoin = []int{faultAt - 1, faultAt, faultAt + 1}
	}
	for _, fam := range hazardFamilies {
		native := runHazard(t, c, fam, gpu.SchedulerSequential, core.InjectTrampoline, nil, false)
		perSite := runHazard(t, c, fam, gpu.SchedulerSequential, core.InjectTrampoline, plan, true)
		merged := runHazard(t, c, fam, gpu.SchedulerSequential, core.InjectTrampoline, plan, false)
		var faults [3]*gpu.Fault
		for k, run := range []hazardRun{native, perSite, merged} {
			f, ok := gpu.AsFault(run.err)
			if !ok {
				t.Fatalf("%v: run %d: %v, want a device fault", fam, k, run.err)
			}
			faults[k] = f
		}
		for k, f := range faults[1:] {
			if f.Kind != faults[0].Kind || f.Lane != faults[0].Lane || f.SASS != faults[0].SASS || f.Addr != faults[0].Addr {
				t.Errorf("%v: build %d faults with %v, native with %v", fam, k+1, f, faults[0])
			}
		}
		if faults[0].Kind != gpu.FaultIllegalAddress {
			t.Errorf("%v: fault kind %v", fam, faults[0].Kind)
		}
		// The context is poisoned alike: it refuses further work with the
		// fault, whichever build ran.
		for k, run := range []hazardRun{perSite, merged} {
			f, ok := gpu.AsFault(run.sticky)
			if !ok || f.Kind != faults[0].Kind || f.Lane != faults[0].Lane || f.SASS != faults[0].SASS {
				t.Errorf("%v: build %d leaves the context refusing work with %v, want the fault", fam, k+1, run.sticky)
			}
		}
		if !bytes.Equal(merged.app, perSite.app) || !bytes.Equal(merged.app, native.app) {
			t.Errorf("%v: application memory differs after the fault", fam)
		}
		// The per-site build stopped before the call of the site after the
		// faulting one; the coalesced build had run it with the rest of the
		// visit's calls. Up to the faulting site the recordings agree.
		slot := func(rec []byte, call int) []byte { return rec[16*recSlots*call:][:16*recSlots] }
		for call := 0; call <= faultAt; call++ {
			if !bytes.Equal(slot(merged.rec, call), slot(perSite.rec, call)) {
				t.Errorf("%v: call %d recorded differently before the fault", fam, call)
			}
		}
		zero := make([]byte, 16*recSlots)
		if !bytes.Equal(slot(perSite.rec, faultAt+1), zero) || bytes.Equal(slot(merged.rec, faultAt+1), zero) {
			t.Errorf("%v: the call after the faulting site ran in the per-site build or did not in the coalesced one", fam)
		}
	}
}

// --- the workload suites ------------------------------------------------------

// suiteWorkload is one application of the two workload suites.
type suiteWorkload struct {
	name string
	run  func(ctx *driver.Context) error
}

// suiteWorkloads are the 15 specaccel benchmarks at Small and GoogLeNet, the
// mlsuite network whose schedule launches every library kernel the five
// networks share (all six layer kinds).
func suiteWorkloads() []suiteWorkload {
	var out []suiteWorkload
	for _, b := range specaccel.Benchmarks() {
		b := b
		out = append(out, suiteWorkload{"specaccel:" + b.Name, func(ctx *driver.Context) error { return b.Run(ctx, specaccel.Small) }})
	}
	for _, net := range mlsuite.Networks() {
		net := net
		if net.Name == "GoogLeNet" {
			out = append(out, suiteWorkload{"mlsuite:" + net.Name, func(ctx *driver.Context) error {
				_, err := mlsuite.Run(ctx, nil, net)
				return err
			}})
		}
	}
	return out
}

// suiteResult is what one suite run left behind.
type suiteResult struct {
	report   string            // the registry tool's, "" without one
	heap     []byte            // every live device allocation, in address order
	native   gpu.Stats         // the device's counts
	stats    core.JITStats     // zero without a tool
	code     map[string][]byte // the coalesced build's artifacts …
	codeSite map[string][]byte // … and what the per-site build makes of the same plans
}

// suiteRun runs one workload under a registry tool, under tool, or under
// nothing when both are unset.
func suiteRun(t *testing.T, w suiteWorkload, toolName string, tool core.Tool, fam sass.Family, sched gpu.SchedulerKind, mode core.InjectionMode, perSite bool) suiteResult {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(fam))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	var inst *registry.Instance
	var nv *core.NVBit
	if toolName != "" {
		var o registry.Options
		if slices.Contains(registry.ReadsOf(toolName), "policy") {
			o.Policy = "block"
		}
		if inst, err = registry.New(toolName, o); err != nil {
			t.Fatal(err)
		}
		tool = inst.Tool
	}
	if tool != nil {
		if nv, err = core.Attach(api, tool, core.WithScheduler(sched), core.WithInjectionMode(mode)); err != nil {
			t.Fatal(err)
		}
		nv.SetPerSiteVisits(perSite)
	} else {
		api.Device().SetScheduler(sched)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.run(ctx); err != nil {
		t.Fatalf("%s under %q: %v", w.name, toolName, err)
	}
	var res suiteResult
	for _, span := range api.Device().Allocations() {
		b := make([]byte, span.Size)
		if err := api.Device().Read(span.Base, b); err != nil {
			t.Fatal(err)
		}
		res.heap = append(res.heap, b...)
	}
	res.native = api.Device().Stats()
	if nv != nil {
		res.stats = nv.JITStats()
	}
	if inst != nil {
		api.Close() // fires AtTerm: channel tools drain before reporting
		var buf bytes.Buffer
		if _, err := inst.Report(&buf, nv); err != nil {
			t.Fatal(err)
		}
		res.report = buf.String()
		// The plans stay with their functions: generate both builds' code
		// from them once more.
		if res.code, err = nv.CodeArtifacts(); err != nil {
			t.Fatal(err)
		}
		nv.SetPerSiteVisits(true)
		if res.codeSite, err = nv.CodeArtifacts(); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestCoalesceSuiteDifferential: over every kernel of both workload suites
// and each of the six differential tools, the coalesced build and the
// per-site build print the same report and leave the same device heap —
// application buffers and tool state alike — and instrcount's total is the
// native run's thread-instruction count either way. The four channel tools
// reserve their records with a value-returning atomic, so their calls stay at
// their sites and the two builds generate the same bytes, which is all there
// is to compare; instrcount and ophisto coalesce and are run both ways.
func TestCoalesceSuiteDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both workload suites under six tools")
	}
	tools := []string{"instrcount", "ophisto", "itrace", "memtrace", "memcheck", "cachesim"}
	for _, w := range suiteWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			native := suiteRun(t, w, "", nil, sass.Volta, gpu.SchedulerSequential, core.InjectTrampoline, false)
			for _, toolName := range tools {
				got := suiteRun(t, w, toolName, nil, sass.Volta, gpu.SchedulerSequential, core.InjectTrampoline, false)
				sameCode := len(got.code) == len(got.codeSite)
				for name, blob := range got.code {
					sameCode = sameCode && bytes.Equal(blob, got.codeSite[name])
				}
				if toolName != "instrcount" && toolName != "ophisto" {
					if !sameCode || got.stats.Visits != got.stats.TrampolinesEmitted {
						t.Errorf("%s: generated code differs from the per-site build's (%d visits for %d sites), want its calls left at their sites",
							toolName, got.stats.Visits, got.stats.TrampolinesEmitted)
					}
					continue
				}
				if sameCode || got.stats.Visits >= got.stats.TrampolinesEmitted {
					t.Errorf("%s: %d visits for %d sites, want its calls coalesced", toolName, got.stats.Visits, got.stats.TrampolinesEmitted)
				}
				site := suiteRun(t, w, toolName, nil, sass.Volta, gpu.SchedulerSequential, core.InjectTrampoline, true)
				if got.report != site.report {
					t.Errorf("%s: report differs:\ncoalesced:\n%s\nper-site:\n%s", toolName, got.report, site.report)
				}
				if !bytes.Equal(got.heap, site.heap) {
					t.Errorf("%s: device heap differs between the coalesced and the per-site build", toolName)
				}
				if got.stats.TrampolinesEmitted != site.stats.TrampolinesEmitted || site.stats.Visits != site.stats.TrampolinesEmitted {
					t.Errorf("%s: %d sites, per-site build %d in %d visits", toolName, got.stats.TrampolinesEmitted, site.stats.TrampolinesEmitted, site.stats.Visits)
				}
				if toolName == "instrcount" {
					var app, lib uint64
					if _, err := fmt.Sscanf(got.report, "thread-level instructions: app %d, libraries %d", &app, &lib); err != nil || app+lib != native.native.ThreadInstrs {
						t.Errorf("instrcount counted %d+%d thread instructions, native executed %d (%v)", app, lib, native.native.ThreadInstrs, err)
					}
				}
			}
		})
	}
}

// TestCoalesceSuiteTransparency: the empty function before and after every
// instruction leaves the heap of every suite workload as the native run does —
// trampoline and full-save mode, both families, both schedulers.
func TestCoalesceSuiteTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both workload suites twelve times")
	}
	for _, w := range suiteWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, fam := range hazardFamilies {
				for _, sched := range hazardScheds {
					native := suiteRun(t, w, "", nil, fam, sched, core.InjectTrampoline, false)
					if native.native.ThreadInstrs == 0 {
						t.Errorf("%v/%v: native run executed nothing", fam, sched)
					}
					for _, mode := range []core.InjectionMode{core.InjectTrampoline, core.InjectFullSave} {
						empty := &hazardTool{plan: func(n *core.NVBit, f *driver.Function) {
							insts, err := n.GetInstrs(f)
							if err != nil {
								panic(err)
							}
							emptyBeforeAfter(&planner{nv: n, insts: insts})
						}}
						got := suiteRun(t, w, "", empty, fam, sched, mode, false)
						if !bytes.Equal(got.heap, native.heap) {
							t.Errorf("%v/%v/%v: device heap differs from the native run", fam, sched, mode)
						}
						if got.stats.Visits == 0 || got.stats.Visits >= got.stats.TrampolinesEmitted {
							t.Errorf("%v/%v/%v: %d visits for %d sites", fam, sched, mode, got.stats.Visits, got.stats.TrampolinesEmitted)
						}
					}
				}
			}
		})
	}
}
