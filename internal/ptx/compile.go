package ptx

import (
	"fmt"
	"strconv"

	"nvbitgo/internal/sass"
)

// compiler holds per-function lowering state.
type compiler struct {
	m      *pmodule
	f      *pfunc
	family sass.Family

	out   []sass.Inst
	lines []int32

	nextReg int
	maxReg  int // highest physical GPR touched
	maxPred int

	params     []Param
	paramBytes int
	sharedSize int

	stmtStart []int32 // body stmt index -> first emitted inst index
	branchFix []branchFixup
	relocs    []Reloc
	related   []string

	// Per statement: the rule being applied, the guard and line every
	// emitted instruction carries, and the first error. Once err is set the
	// operand resolvers below do nothing, so a rule's slots are resolved
	// without a check after each.
	form     *pform
	args     []operand
	guard    sass.Pred
	guardNeg bool
	line     int32
	err      error
}

type branchFixup struct {
	instIdx int
	label   string
	line    int
}

func compileFunc(pm *pmodule, pf *pfunc, family sass.Family) (*Func, error) {
	c := &compiler{
		m:       pm,
		f:       pf,
		family:  family,
		out:     make([]sass.Inst, 0, len(pf.body)+16),
		lines:   make([]int32, 0, len(pf.body)+16),
		maxReg:  -1,
		maxPred: -1,
	}
	if err := c.layoutParams(); err != nil {
		return nil, err
	}
	if err := c.allocRegs(); err != nil {
		return nil, err
	}
	if n := len(pf.shared); n > 0 {
		c.sharedSize = pf.shared[n-1].offset + pf.shared[n-1].bytes
	}
	c.stmtStart = make([]int32, 0, len(pf.body)+1)
	for i := range pf.body {
		c.stmtStart = append(c.stmtStart, int32(len(c.out)))
		if err := c.lower(&pf.body[i]); err != nil {
			return nil, fmt.Errorf("line %d: %w", pf.body[i].line, err)
		}
	}
	c.stmtStart = append(c.stmtStart, int32(len(c.out)))
	// Implicit terminator unless the body ends in an unguarded one that no
	// label follows.
	endLabel := false
	for _, target := range pf.labels {
		endLabel = endLabel || target == len(pf.body)
	}
	if n := len(c.out); n == 0 || endLabel || c.out[n-1].Guarded() ||
		(c.out[n-1].Op != sass.OpEXIT && c.out[n-1].Op != sass.OpRET) {
		c.guard, c.guardNeg = sass.PT, false
		c.emit(sass.NewInst(c.terminator()))
	}
	// Resolve local branch targets.
	for _, fx := range c.branchFix {
		target, ok := pf.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("line %d: undefined label %q", fx.line, fx.label)
		}
		rel := int64(int(c.stmtStart[target]) - (fx.instIdx + 1))
		if !sass.ImmFits(family, sass.OpBRA, rel) {
			return nil, fmt.Errorf("line %d: branch to %q out of range", fx.line, fx.label)
		}
		c.out[fx.instIdx].Imm = rel
	}
	return &Func{Insts: c.out, FuncInfo: FuncInfo{
		Name:        pf.name,
		Entry:       pf.entry,
		NumRegs:     c.maxReg + 1,
		NumPred:     c.maxPred + 1,
		Params:      c.params,
		ParamBytes:  c.paramBytes,
		SharedBytes: c.sharedSize,
		Relocs:      c.relocs,
		Related:     c.related,
		Lines:       c.lines,
	}}, nil
}

func (c *compiler) terminator() sass.Opcode {
	if c.f.entry {
		return sass.OpEXIT
	}
	return sass.OpRET
}

// layoutParams assigns parameter locations: constant-bank offsets for
// entries, ABI registers for device functions.
func (c *compiler) layoutParams() error {
	if len(c.f.params) > 0 {
		c.params = make([]Param, 0, len(c.f.params))
	}
	if c.f.entry {
		off := 0
		for _, p := range c.f.params {
			off = (off + p.bytes - 1) &^ (p.bytes - 1)
			c.params = append(c.params, Param{Name: p.name, Bytes: p.bytes, Offset: off})
			off += p.bytes
		}
		c.paramBytes = off
		return nil
	}
	reg := abiArgBase
	for _, p := range c.f.params {
		if p.bytes == 8 && reg%2 != 0 {
			reg++
		}
		if reg+p.bytes/4 > abiArgBase+abiMaxArgs {
			return fmt.Errorf("function %s: too many parameter registers", c.f.name)
		}
		c.params = append(c.params, Param{Name: p.name, Bytes: p.bytes, Offset: reg}) // Offset = ABI register
		c.touchReg(sass.Reg(reg), p.bytes == 8)
		reg += p.bytes / 4
	}
	return nil
}

// allocRegs maps every declared virtual register to a physical one. The
// allocator is a deterministic linear assigner (no live-range reuse): pairs
// are even-aligned, predicates are P0.. in declaration order. The base of
// the local area depends on the function kind (see deviceABI in ptx.go).
func (c *compiler) allocRegs() error {
	switch {
	case c.f.entry:
		c.nextReg = 4
	case c.f.tool:
		c.nextReg = abiArgBase + abiMaxArgs // R16: everything below is saved by the trampoline
	default:
		c.nextReg = calleeRegBase
	}
	for i := range c.f.regs {
		d := &c.f.regs[i]
		if d.class == ClassB64 && c.nextReg%2 != 0 {
			c.nextReg++
		}
		d.base = sass.Reg(c.nextReg)
		if d.class == ClassPred {
			d.base = sass.Reg(c.maxPred + 1)
		}
		for k := 0; k < max(d.n, 1); k++ {
			switch d.class {
			case ClassPred:
				c.maxPred++
				if c.maxPred >= sass.NumPreds {
					return fmt.Errorf("function %s: more than %d predicate registers", c.f.name, sass.NumPreds)
				}
			case ClassB64:
				if c.nextReg+1 >= sass.NumRegs {
					return fmt.Errorf("function %s: out of registers", c.f.name)
				}
				c.touchReg(sass.Reg(c.nextReg), true)
				c.nextReg += 2
			default:
				if c.nextReg >= sass.NumRegs {
					return fmt.Errorf("function %s: out of registers", c.f.name)
				}
				c.touchReg(sass.Reg(c.nextReg), false)
				c.nextReg++
			}
		}
	}
	return nil
}

// physical is member k of a declaration: consecutive registers, pairs or
// predicates from its base.
func (d *pregs) physical(k int) sass.Reg {
	if d.class == ClassB64 {
		k *= 2
	}
	return d.base + sass.Reg(k)
}

func (c *compiler) touchReg(r sass.Reg, wide bool) {
	n := int(r)
	if wide {
		n++
	}
	if n > c.maxReg {
		c.maxReg = n
	}
}

// emit appends one instruction under the statement's guard and line. An
// immediate the family cannot encode fails the statement here, whatever
// produced it.
func (c *compiler) emit(in sass.Inst) {
	if !sass.ImmFits(c.family, in.Op, in.Imm) {
		c.fail("immediate %d out of range for %v", in.Imm, c.family)
	}
	in.Pred, in.PredNeg = c.guard, c.guardNeg
	c.out = append(c.out, in)
	c.lines = append(c.lines, c.line)
}

// --- sticky-error operand resolvers ------------------------------------------

func (c *compiler) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// want fails the statement with the operand shape its rule row accepts.
func (c *compiler) want() { c.fail("want %s", c.form.rule.shape()) }

var classNames = [...]string{ClassB32: "32-bit", ClassB64: "64-bit", ClassPred: "predicate"}

// reg resolves a register operand of the wanted class.
func (c *compiler) reg(o *operand, class RegClass) sass.Reg {
	if o.kind != opdReg || o.neg && class != ClassPred {
		c.want()
	}
	return c.lookup(o, class)
}

// declOf returns the declaration and family index of a register operand,
// looking up the name of one that was used before it was declared.
func (c *compiler) declOf(o *operand) (*pregs, int) {
	decl, k := int(o.ref), int(o.k)
	if o.k == unresolved {
		if decl, k = c.f.findReg(c.m.names[o.ref]); decl < 0 {
			return nil, 0
		}
	}
	return &c.f.regs[decl], k
}

// lookup resolves a register operand to its physical register.
func (c *compiler) lookup(o *operand, class RegClass) sass.Reg {
	if c.err != nil {
		return sass.RZ
	}
	d, k := c.declOf(o)
	switch {
	case d == nil:
		c.fail("undeclared register %q", c.m.names[o.ref])
		return sass.RZ
	case d.class != class:
		name := d.prefix
		if d.n > 0 {
			name += strconv.Itoa(k)
		}
		c.fail("%s is a %s register where %s is required", name, classNames[d.class], classNames[class])
	}
	return d.physical(k)
}

// tmp allocates a fresh scratch register, or an aligned pair (counted in
// the budget).
func (c *compiler) tmp(wide bool) sass.Reg {
	if wide && c.nextReg%2 != 0 {
		c.nextReg++
	}
	n := 1
	if wide {
		n = 2
	}
	if c.err != nil || c.nextReg+n > sass.NumRegs {
		c.fail("out of registers for scratch")
		return sass.RZ
	}
	r := sass.Reg(c.nextReg)
	c.nextReg += n
	c.touchReg(r, wide)
	return r
}

// loadImm emits code loading a 32-bit constant into dst.
func (c *compiler) loadImm(dst sass.Reg, v uint32) {
	var seq [2]sass.Inst
	for _, in := range sass.AppendLoadImm32(seq[:0], c.family, dst, v) {
		c.emit(in)
	}
}

// loadImm64 loads a 64-bit constant into the pair at dst.
func (c *compiler) loadImm64(dst sass.Reg, v uint64) {
	c.loadImm(dst, uint32(v))
	c.loadImm(dst+1, uint32(v>>32))
}

// typedValue resolves a pair under a 64-bit type, else a 32-bit value.
func (c *compiler) typedValue(o *operand, wide bool) sass.Reg {
	if wide {
		return c.reg(o, ClassB64)
	}
	return c.value(o)
}

// value resolves a 32-bit register, or materialises an immediate into a
// scratch register.
func (c *compiler) value(o *operand) sass.Reg {
	if o.kind != opdImm {
		return c.reg(o, ClassB32)
	}
	t := c.tmp(false)
	c.loadImm(t, uint32(o.imm))
	return t
}
