package ptx

import (
	"fmt"

	"nvbitgo/internal/sass"
)

// compiler holds per-function lowering state.
type compiler struct {
	f      *pfunc
	family sass.Family

	out   []sass.Inst
	lines []int32

	regs    map[string]vreg
	nextReg int
	maxReg  int // highest physical GPR touched
	maxPred int

	params     map[string]Param
	paramList  []Param
	paramBytes int
	sharedSyms map[string]int
	sharedSize int

	stmtStart []int // body stmt index -> first emitted inst index
	branchFix []branchFixup
	relocs    []Reloc
	related   []string

	// Per statement: the rule being applied, the guard and line every
	// emitted instruction carries, and the first error. Once err is set the
	// operand resolvers below do nothing, so a rule's slots are resolved
	// without a check after each.
	st       *pstmt
	rule     *rule
	guard    sass.Pred
	guardNeg bool
	line     int32
	err      error
}

// vreg is a declared virtual register's class and physical register (the
// predicate index for ClassPred).
type vreg struct {
	class RegClass
	r     sass.Reg
}

type branchFixup struct {
	instIdx int
	label   string
	line    int
}

func compileFunc(pf *pfunc, family sass.Family) (*Func, error) {
	c := &compiler{
		f:          pf,
		family:     family,
		out:        make([]sass.Inst, 0, len(pf.body)+16),
		lines:      make([]int32, 0, len(pf.body)+16),
		regs:       make(map[string]vreg, len(pf.regOrd)),
		params:     make(map[string]Param),
		sharedSyms: make(map[string]int),
		maxReg:     -1,
		maxPred:    -1,
	}
	if err := c.layoutParams(); err != nil {
		return nil, err
	}
	if err := c.allocRegs(); err != nil {
		return nil, err
	}
	for _, sh := range pf.shared {
		c.sharedSyms[sh.name] = sh.offset
		c.sharedSize = sh.offset + sh.bytes
	}
	c.stmtStart = make([]int, 0, len(pf.body)+1)
	for i := range pf.body {
		c.stmtStart = append(c.stmtStart, len(c.out))
		if err := c.lower(&pf.body[i]); err != nil {
			return nil, fmt.Errorf("line %d: %w", pf.body[i].line, err)
		}
	}
	c.stmtStart = append(c.stmtStart, len(c.out))
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
		rel := int64(c.stmtStart[target] - (fx.instIdx + 1))
		if !sass.ImmFits(family, sass.OpBRA, rel) {
			return nil, fmt.Errorf("line %d: branch to %q out of range", fx.line, fx.label)
		}
		c.out[fx.instIdx].Imm = rel
	}
	return &Func{
		Name:        pf.name,
		Entry:       pf.entry,
		Insts:       c.out,
		NumRegs:     c.maxReg + 1,
		NumPred:     c.maxPred + 1,
		Params:      c.paramList,
		ParamBytes:  c.paramBytes,
		SharedBytes: c.sharedSize,
		Relocs:      c.relocs,
		Related:     c.related,
		Lines:       c.lines,
	}, nil
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
	if c.f.entry {
		off := 0
		for _, p := range c.f.params {
			off = (off + p.bytes - 1) &^ (p.bytes - 1)
			pp := Param{Name: p.name, Bytes: p.bytes, Offset: off}
			c.params[p.name] = pp
			c.paramList = append(c.paramList, pp)
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
		pp := Param{Name: p.name, Bytes: p.bytes, Offset: reg} // Offset = ABI register
		c.params[p.name] = pp
		c.paramList = append(c.paramList, pp)
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
	for _, name := range c.f.regOrd {
		switch c.f.regs[name] {
		case ClassPred:
			c.maxPred++
			if c.maxPred >= sass.NumPreds {
				return fmt.Errorf("function %s: more than %d predicate registers", c.f.name, sass.NumPreds)
			}
			c.regs[name] = vreg{ClassPred, sass.Reg(c.maxPred)}
		case ClassB64:
			if c.nextReg%2 != 0 {
				c.nextReg++
			}
			if c.nextReg+1 >= sass.NumRegs {
				return fmt.Errorf("function %s: out of registers", c.f.name)
			}
			c.regs[name] = vreg{ClassB64, sass.Reg(c.nextReg)}
			c.touchReg(sass.Reg(c.nextReg), true)
			c.nextReg += 2
		default:
			if c.nextReg >= sass.NumRegs {
				return fmt.Errorf("function %s: out of registers", c.f.name)
			}
			c.regs[name] = vreg{ClassB32, sass.Reg(c.nextReg)}
			c.touchReg(sass.Reg(c.nextReg), false)
			c.nextReg++
		}
	}
	return nil
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
func (c *compiler) want() { c.fail("want %s", c.rule.shape()) }

var classNames = [...]string{ClassB32: "32-bit", ClassB64: "64-bit", ClassPred: "predicate"}

// reg resolves a register operand of the wanted class.
func (c *compiler) reg(o *operand, class RegClass) sass.Reg {
	if o.kind != opdReg || o.neg && class != ClassPred {
		c.want()
	}
	return c.lookup(o.name, class)
}

// lookup resolves a declared register by name.
func (c *compiler) lookup(name string, class RegClass) sass.Reg {
	if c.err != nil {
		return sass.RZ
	}
	v, ok := c.regs[name]
	switch {
	case !ok:
		c.fail("undeclared register %q", name)
	case v.class != class:
		c.fail("%s is a %s register where %s is required", name, classNames[v.class], classNames[class])
	}
	return v.r
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
