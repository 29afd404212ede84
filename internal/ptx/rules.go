package ptx

import (
	"fmt"
	"slices"
	"strings"

	"nvbitgo/internal/sass"
)

// slotKind says what one operand position of a rule row accepts and how it
// is resolved.
type slotKind uint8

const (
	kReg      slotKind = iota // 32-bit register
	kPair                     // 64-bit register (an aligned pair)
	kTyped                    // register of the statement type's width
	kVal                      // 32-bit register, or immediate materialised into a scratch
	kTypedVal                 // pair under a 64-bit type, else kVal
	kFold                     // 32-bit register, or immediate carried by the instruction
	kFoldNeg                  // kFold with the immediate negated (sub)
	kFold64                   // pair, or 64-bit immediate carried by the instruction
	kNegImm64                 // negated 64-bit immediate only (sub.u64)
	kImm                      // immediate, taken as is into Imm
	kZero                     // the immediate 0 (the one CTA barrier)
	kPred                     // predicate, not negated
	kSelPred                  // predicate; negated swaps the two sources (selp)
	kGlobal                   // [pair ± off]
	kShared                   // [r32 ± off], [symbol ± off] or [abs]
	kLocal                    // [r32 ± off]
	kParam                    // [param ± off]: constant bank 1 in entries, an ABI register otherwise
	kLabel                    // branch target, fixed up after the body
	kSym                      // function name, read by the expander
	kList                     // (a, b, ...), read by the expander
	kAny                      // read by the expander
)

var slotNames = [...]string{
	kReg: "r32", kPair: "r64", kTyped: "reg", kVal: "r32|imm", kTypedVal: "reg|imm",
	kFold: "r32|imm", kFoldNeg: "r32|imm", kFold64: "r64|imm", kNegImm64: "imm",
	kImm: "imm", kZero: "0", kPred: "pred", kSelPred: "[!]pred",
	kGlobal: "[r64+off]", kShared: "[r32|sym+off]", kLocal: "[r32+off]", kParam: "[param+off]",
	kLabel: "label", kSym: "name", kList: "(regs)", kAny: "src",
}

// field is the sass.Inst field a resolved slot lands in.
type field uint8

const (
	toNone field = iota
	toDst
	toSrc1
	toSrc2
	toSrc3
	toAux // Mods.Aux
)

type slot struct {
	kind slotKind
	to   field
}

var (
	dR, dP, dT     = slot{kReg, toDst}, slot{kPair, toDst}, slot{kTyped, toDst}
	aR, aP, aT     = slot{kReg, toSrc1}, slot{kPair, toSrc1}, slot{kTyped, toSrc1}
	aV, bV, cV     = slot{kVal, toSrc1}, slot{kVal, toSrc2}, slot{kVal, toSrc3}
	aTV, bTV, cP   = slot{kTypedVal, toSrc1}, slot{kTypedVal, toSrc2}, slot{kPair, toSrc3}
	bF, bFN        = slot{kFold, toSrc2}, slot{kFoldNeg, toSrc2}
	bF64, bN64     = slot{kFold64, toSrc2}, slot{kNegImm64, toSrc2}
	xImm, xZero    = slot{kImm, toNone}, slot{kZero, toNone}
	dPred, auxPred = slot{kPred, toDst}, slot{kPred, toAux}
	auxSel         = slot{kSelPred, toAux}
	aGlobal        = slot{kGlobal, toSrc1}
	aShared        = slot{kShared, toSrc1}
	aLocal         = slot{kLocal, toSrc1}
	aParam         = slot{kParam, toSrc1}
	xLabel, xSym   = slot{kLabel, toNone}, slot{kSym, toNone}
	xList, xAny    = slot{kList, toNone}, slot{kAny, toNone}
)

// Sub-operation vocabularies, indexed by the SASS sub-op they select.
var (
	cmpOps    = []string{sass.CmpEQ: "eq", sass.CmpNE: "ne", sass.CmpLT: "lt", sass.CmpLE: "le", sass.CmpGT: "gt", sass.CmpGE: "ge"}
	atomArith = []string{sass.AtomAdd: "add", sass.AtomMin: "min", sass.AtomMax: "max", sass.AtomExch: "exch"}
	atomBits  = []string{"and", "or", "xor"} // from sass.AtomAnd
	shflModes = []string{sass.ShflUp: "up", sass.ShflDown: "down", sass.ShflBfly: "bfly", sass.ShflIdx: "idx"}
)

// Function kinds a row can be limited to.
const (
	inEntry  = 1
	inDevice = 2
)

// rule is one accepted statement form and what it lowers to. A statement
// matches on opcode, modifiers, type suffix(es) and function kind; the walker
// then resolves its operands slot by slot into one sass.Inst. What no row
// matches is not in the dialect.
type rule struct {
	op    string
	mods  string   // fixed modifiers; with subs set, followed by one of its words
	subs  []string // sub-op vocabulary: the word's index is added to sub
	types ptype    // accepted type suffixes; 0 for a form that takes none
	from  ptype    // cvt: accepted source types
	only  uint8    // inEntry, inDevice, or 0 for both

	sass  sass.Opcode
	sub   int   // Mods.SubOp (the constant bank for LDC)
	wide  bool  // Mods.Wide whatever the type (it follows a 64-bit type anyway)
	flag  ptype // types that set Mods.Flag: unsigned compare, float atomic
	slots []slot
	// optional counts trailing slots a statement may leave out.
	optional int
	// expand emits the forms that take more than the one resolved
	// instruction; nil emits it as is.
	expand func(c *compiler, in sass.Inst)
}

const (
	tInt  = tU32 | tS32               // arithmetic whose low 32 bits ignore signedness
	tAtom = tU32 | tB32 | tU64 | tB64 // atomics: ATOM's min/max are unsigned
)

var rules = [...]rule{
	// Arithmetic and logic.
	{op: "add", types: tInt, sass: sass.OpIADD, slots: []slot{dR, aR, bF}},
	{op: "add", types: tF32, sass: sass.OpFADD, slots: []slot{dR, aV, bV}},
	{op: "add", types: tU64 | tS64, sass: sass.OpIADD, slots: []slot{dP, aP, bF64}},
	{op: "sub", types: tInt, sass: sass.OpIADD, slots: []slot{dR, aR, bFN}, expand: expandSubReg},
	{op: "sub", types: tF32, sass: sass.OpFADD, slots: []slot{dR, aV, bV}, expand: expandSubF32},
	{op: "sub", types: tU64 | tS64, sass: sass.OpIADD, slots: []slot{dP, aP, bN64}},
	{op: "min", types: tInt, sass: sass.OpISETP, sub: sass.CmpLT, flag: tU32, slots: []slot{dR, aR, bV}, expand: expandMinMax},
	{op: "max", types: tInt, sass: sass.OpISETP, sub: sass.CmpGT, flag: tU32, slots: []slot{dR, aR, bV}, expand: expandMinMax},
	{op: "mul", types: tF32, sass: sass.OpFMUL, slots: []slot{dR, aV, bV}},
	{op: "mul", mods: "lo", types: tInt, sass: sass.OpIMUL, slots: []slot{dR, aR, bV}},
	{op: "mul", mods: "wide", types: tU32, sass: sass.OpIMAD, wide: true, slots: []slot{dP, aR, bV}},
	{op: "mad", mods: "lo", types: tInt, sass: sass.OpIMAD, slots: []slot{dR, aR, bV, cV}},
	{op: "mad", mods: "wide", types: tU32, sass: sass.OpIMAD, wide: true, slots: []slot{dP, aR, bV, cP}},
	{op: "fma", mods: "rn", types: tF32, sass: sass.OpFFMA, slots: []slot{dR, aV, bV, cV}},
	{op: "div", mods: "approx", types: tF32, sass: sass.OpFMUL, slots: []slot{dR, aV, bV}, expand: expandDiv},
	{op: "and", types: tI32, sass: sass.OpLOP, sub: sass.LopAnd, slots: []slot{dR, aR, bF}},
	{op: "or", types: tI32, sass: sass.OpLOP, sub: sass.LopOr, slots: []slot{dR, aR, bF}},
	{op: "xor", types: tI32, sass: sass.OpLOP, sub: sass.LopXor, slots: []slot{dR, aR, bF}},
	{op: "not", types: tI32, sass: sass.OpLOP, sub: sass.LopNot, slots: []slot{dR, aR}},
	{op: "shl", types: tI32, sass: sass.OpSHL, slots: []slot{dR, aR, bF}},
	{op: "shr", types: tU32 | tB32, sass: sass.OpSHR, slots: []slot{dR, aR, bF}},
	{op: "shr", types: tI64, sass: sass.OpSHR, slots: []slot{dP, aP, xImm}, expand: expandShr64},
	{op: "popc", types: tB32, sass: sass.OpPOPC, slots: []slot{dR, aR}},
	{op: "rcp", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuRcp, slots: []slot{dR, aR}},
	{op: "rcp", types: tF32, sass: sass.OpMUFU, sub: sass.MufuRcp, slots: []slot{dR, aR}},
	{op: "rsqrt", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuRsq, slots: []slot{dR, aR}},
	{op: "rsqrt", types: tF32, sass: sass.OpMUFU, sub: sass.MufuRsq, slots: []slot{dR, aR}},
	{op: "sqrt", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuSqrt, slots: []slot{dR, aR}},
	{op: "sqrt", types: tF32, sass: sass.OpMUFU, sub: sass.MufuSqrt, slots: []slot{dR, aR}},
	{op: "sin", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuSin, slots: []slot{dR, aR}},
	{op: "sin", types: tF32, sass: sass.OpMUFU, sub: sass.MufuSin, slots: []slot{dR, aR}},
	{op: "cos", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuCos, slots: []slot{dR, aR}},
	{op: "cos", types: tF32, sass: sass.OpMUFU, sub: sass.MufuCos, slots: []slot{dR, aR}},
	{op: "ex2", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuEx2, slots: []slot{dR, aR}},
	{op: "ex2", types: tF32, sass: sass.OpMUFU, sub: sass.MufuEx2, slots: []slot{dR, aR}},
	{op: "lg2", mods: "approx", types: tF32, sass: sass.OpMUFU, sub: sass.MufuLg2, slots: []slot{dR, aR}},
	{op: "lg2", types: tF32, sass: sass.OpMUFU, sub: sass.MufuLg2, slots: []slot{dR, aR}},
	{op: "setp", subs: cmpOps, types: tInt, sass: sass.OpISETP, flag: tU32, slots: []slot{auxPred, aR, bF}},
	{op: "setp", subs: cmpOps, types: tF32, sass: sass.OpFSETP, slots: []slot{auxPred, aV, bV}},
	{op: "selp", types: t32, sass: sass.OpSEL, slots: []slot{dR, aV, bV, auxSel}},
	{op: "cvt", types: tF32, from: tInt, sass: sass.OpI2F, slots: []slot{dR, aR}},
	{op: "cvt", types: tInt, from: tF32, sass: sass.OpF2I, slots: []slot{dR, aR}},
	{op: "cvt", types: tInt, from: tU64 | tS64, sass: sass.OpMOV, slots: []slot{dR, aP}},
	{op: "cvt", types: tU64 | tS64, from: tU32, sass: sass.OpMOV, slots: []slot{dP, aR}, expand: expandZext},
	{op: "mov", types: t32 | tI64, sass: sass.OpMOV, slots: []slot{dT, xAny}, expand: expandMov},

	// Memory.
	{op: "ld", mods: "param", types: t32 | tI64, only: inEntry, sass: sass.OpLDC, sub: 1, slots: []slot{dT, aParam}},
	{op: "ld", mods: "param", types: t32 | tI64, only: inDevice, sass: sass.OpMOV, slots: []slot{dT, aParam}},
	{op: "ld", mods: "global", types: t32 | tI64, sass: sass.OpLDG, slots: []slot{dT, aGlobal}},
	{op: "ld", mods: "shared", types: t32 | tI64, sass: sass.OpLDS, slots: []slot{dT, aShared}},
	{op: "ld", mods: "local", types: t32 | tI64, sass: sass.OpLDL, slots: []slot{dT, aLocal}},
	{op: "st", mods: "global", types: t32 | tI64, sass: sass.OpSTG, slots: []slot{aGlobal, bTV}},
	{op: "st", mods: "shared", types: t32 | tI64, sass: sass.OpSTS, slots: []slot{aShared, bTV}},
	{op: "st", mods: "local", types: t32 | tI64, sass: sass.OpSTL, slots: []slot{aLocal, bTV}},
	{op: "atom", mods: "global.", subs: atomArith, types: tAtom | tF32, sass: sass.OpATOM, flag: tF32, slots: []slot{dT, aGlobal, bTV}},
	{op: "atom", mods: "global.", subs: atomBits, types: tAtom, sass: sass.OpATOM, sub: sass.AtomAnd, slots: []slot{dT, aGlobal, bTV}},
	{op: "red", mods: "global.", subs: atomArith, types: tAtom | tF32, sass: sass.OpRED, flag: tF32, slots: []slot{aGlobal, bTV}},
	{op: "red", mods: "global.", subs: atomBits, types: tAtom, sass: sass.OpRED, sub: sass.AtomAnd, slots: []slot{aGlobal, bTV}},

	// Control flow and warp operations.
	{op: "bra", sass: sass.OpBRA, slots: []slot{xLabel}},
	{op: "bar", mods: "sync", sass: sass.OpBAR, slots: []slot{xZero}},
	{op: "exit", sass: sass.OpEXIT},
	{op: "ret", only: inEntry, sass: sass.OpEXIT},
	{op: "ret", only: inDevice, sass: sass.OpRET},
	{op: "call", sass: sass.OpCAL, slots: []slot{xSym, xList, xList}, optional: 2, expand: expandCall},
	{op: "setret", types: t32 | tI64, sass: sass.OpMOV, slots: []slot{aTV}, expand: expandSetret},
	{op: "shfl", subs: shflModes, types: tB32, sass: sass.OpSHFL, slots: []slot{dR, aR, bF}},
	{op: "vote", mods: "ballot", types: tB32, sass: sass.OpVOTE, sub: sass.VoteBallot, slots: []slot{dR, auxPred}},
	{op: "vote", mods: "any", types: tPred, sass: sass.OpVOTE, sub: sass.VoteAny, slots: []slot{dPred, auxPred}},
	{op: "vote", mods: "all", types: tPred, sass: sass.OpVOTE, sub: sass.VoteAll, slots: []slot{dPred, auxPred}},
	{op: "match", mods: "any", types: tB32 | tB64, sass: sass.OpMATCH, slots: []slot{dR, aT}},
	{op: "wfft32", types: tF32, sass: sass.OpWFFT32, slots: []slot{dR, aR}},

	// NVBit device API (paper Listing 7): reads and writes of the saved
	// image of the interrupted thread, meaningful under a trampoline.
	{op: "rdreg", types: tB32, sass: sass.OpRDREG, slots: []slot{dR, aV}},
	{op: "wrreg", types: tB32, sass: sass.OpWRREG, slots: []slot{aV, bV}},
	{op: "rdpred", types: tB32, sass: sass.OpRDPRED, slots: []slot{dR}},
	{op: "wrpred", types: tB32, sass: sass.OpWRPRED, slots: []slot{bV}},
}

// rulesByOp indexes the table by PTX opcode.
var rulesByOp = func() map[string][]*rule {
	m := make(map[string][]*rule)
	for i := range rules {
		m[rules[i].op] = append(m[rules[i].op], &rules[i])
	}
	return m
}()

// selectRule returns the row a split mnemonic matches in an entry or a
// device function and the sub-op its modifiers select, or nil.
func selectRule(op, mods string, typ, from ptype, entry bool) (*rule, int) {
	for _, r := range rulesByOp[op] {
		if typ != r.types&typ || (typ == 0) != (r.types == 0) ||
			from != r.from&from || (from == 0) != (r.from == 0) ||
			r.only == inEntry && !entry || r.only == inDevice && entry {
			continue
		}
		if r.subs == nil {
			if mods == r.mods {
				return r, r.sub
			}
		} else if word, ok := strings.CutPrefix(mods, r.mods); ok {
			if i := slices.Index(r.subs, word); i >= 0 {
				return r, r.sub + i
			}
		}
	}
	return nil, 0
}

// shape renders the operands a row accepts, for diagnostics.
func (r *rule) shape() string {
	if len(r.slots) == 0 {
		return "no operands"
	}
	var b strings.Builder
	for i, s := range r.slots {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(slotNames[s.kind])
	}
	if r.optional > 0 {
		fmt.Fprintf(&b, " (last %d optional)", r.optional)
	}
	return b.String()
}

// lower translates one statement: it takes the row its form matched,
// resolves the operands left to right as the row's slots say, and emits the
// instruction (or hands it to the row's expander).
func (c *compiler) lower(st *pstmt) error {
	form := &c.m.forms[st.form]
	args := c.m.ops[st.args : st.args+st.nargs]
	c.form, c.args, c.err, c.line = form, args, nil, st.line
	c.guard, c.guardNeg = sass.PT, false
	r := form.rule
	if r == nil {
		return fmt.Errorf("unsupported instruction %q", form.mnem)
	}
	if st.guarded {
		g := &c.m.ops[st.args-1]
		c.guard, c.guardNeg = sass.Pred(c.reg(g, ClassPred)), g.neg
	}
	if n := len(args); n > len(r.slots) || n < len(r.slots)-r.optional {
		c.want()
	}
	in := sass.NewInst(r.sass)
	wide := r.wide || form.typ&tI64 != 0
	aux, label := sass.PT, ""
	for i := 0; i < len(args) && c.err == nil; i++ {
		o, s := &args[i], r.slots[i]
		v := sass.RZ
		switch s.kind {
		case kReg:
			v = c.reg(o, ClassB32)
		case kPair:
			v = c.reg(o, ClassB64)
		case kTyped:
			v = c.reg(o, classOf(wide))
		case kVal:
			v = c.value(o)
		case kTypedVal:
			v = c.typedValue(o, wide)
		case kFold, kFoldNeg, kFold64, kNegImm64:
			v = c.fold(o, s.kind, &in)
		case kImm, kZero:
			if o.kind != opdImm || s.kind == kZero && o.imm != 0 {
				c.want()
			}
			in.Imm = o.imm
		case kPred, kSelPred:
			if o.neg && s.kind == kPred {
				role := "source"
				if i == 0 {
					role = "destination"
				}
				c.fail("negated %s predicate", role)
			}
			if v = c.reg(o, ClassPred); o.neg {
				in.Src1, in.Src2 = in.Src2, in.Src1
			}
		case kGlobal, kShared, kLocal, kParam:
			v = c.mem(o, s.kind, &in)
		case kLabel:
			if o.kind != opdSym {
				c.want()
			}
			label = c.m.name(o)
		}
		switch s.to {
		case toDst:
			in.Dst = v
		case toSrc1:
			in.Src1 = v
		case toSrc2:
			in.Src2 = v
		case toSrc3:
			in.Src3 = v
		case toAux:
			aux = sass.Pred(v)
		}
	}
	in.Mods = sass.MakeMods(int(form.sub), wide, form.typ&r.flag != 0, aux)
	if c.err == nil {
		if r.expand != nil {
			r.expand(c, in)
		} else {
			c.emit(in)
		}
		if label != "" {
			c.branchFix = append(c.branchFix, branchFixup{len(c.out) - 1, label, int(st.line)})
		}
	}
	if c.err != nil {
		return fmt.Errorf("%s: %w", form.mnem, c.err)
	}
	return nil
}

func classOf(wide bool) RegClass {
	if wide {
		return ClassB64
	}
	return ClassB32
}

// fold resolves a register-or-immediate operand whose immediate the SASS
// form carries itself (base RZ); one the family cannot encode is
// materialised into a scratch register instead.
func (c *compiler) fold(o *operand, k slotKind, in *sass.Inst) sass.Reg {
	wide := k == kFold64 || k == kNegImm64
	if o.kind != opdImm {
		if k == kNegImm64 {
			c.want()
		}
		return c.reg(o, classOf(wide))
	}
	v := o.imm
	if k == kFoldNeg || k == kNegImm64 {
		v = -v
	}
	if sass.ImmFits(c.family, in.Op, v) {
		in.Imm = v
		return sass.RZ
	}
	t := c.tmp(wide)
	if wide {
		c.loadImm64(t, uint64(v))
	} else {
		c.loadImm(t, uint32(v))
	}
	return t
}

// mem resolves a memory operand in the slot's space to a base register,
// leaving the byte offset in Imm.
func (c *compiler) mem(o *operand, k slotKind, in *sass.Inst) sass.Reg {
	in.Imm = o.imm
	switch {
	case o.kind == opdMemReg && k == kGlobal:
		return c.lookup(o, ClassB64)
	case o.kind == opdMemReg && k != kParam:
		return c.lookup(o, ClassB32)
	case o.kind == opdMemSym && k == kShared:
		name := c.m.name(o)
		if name == "" {
			return sass.RZ // absolute shared offset
		}
		off, ok := c.sharedOffset(name)
		if !ok {
			c.fail("unknown shared symbol %q", name)
		}
		in.Imm += int64(off)
		return sass.RZ
	case o.kind == opdMemSym && k == kParam:
		name := c.m.name(o)
		i := slices.IndexFunc(c.params, func(p Param) bool { return p.Name == name })
		if i < 0 {
			c.fail("unknown parameter %q", name)
			return sass.RZ
		}
		switch p := c.params[i]; {
		case c.f.entry:
			in.Imm += int64(p.Offset)
		case o.imm != 0:
			c.fail("offset into the register parameter %q", name)
		default:
			return sass.Reg(p.Offset)
		}
		return sass.RZ
	}
	c.want()
	return sass.RZ
}

// sharedOffset is the offset of a declared shared array.
func (c *compiler) sharedOffset(name string) (int, bool) {
	for i := range c.f.shared {
		if c.f.shared[i].name == name {
			return c.f.shared[i].offset, true
		}
	}
	return 0, false
}

// --- expanders: the forms that are more than one instruction -----------------

// move emits dst = src, as a pair when wide.
func (c *compiler) move(dst, src sass.Reg, wide bool) {
	mv := sass.NewInst(sass.OpMOV)
	mv.Dst, mv.Src1 = dst, src
	mv.Mods = sass.MakeMods(0, wide, false, sass.PT)
	c.emit(mv)
}

// expandSubReg: a - b with b in a register is a + ^b + 1 (IADD carries the
// 1). An immediate b was already negated by its slot.
func expandSubReg(c *compiler, in sass.Inst) {
	if c.args[2].kind == opdReg {
		n := sass.NewInst(sass.OpLOP)
		n.Dst, n.Src1 = c.tmp(false), in.Src2
		n.Mods = sass.MakeMods(sass.LopNot, false, false, sass.PT)
		c.emit(n)
		in.Src2, in.Imm = n.Dst, 1
	}
	c.emit(in)
}

// expandSubF32 negates b by XOR of the sign bit into a scratch.
func expandSubF32(c *compiler, in sass.Inst) {
	x := sass.NewInst(sass.OpLOP)
	x.Dst = c.tmp(false)
	c.loadImm(x.Dst, 0x80000000)
	x.Src1, x.Src2 = in.Src2, x.Dst
	x.Mods = sass.MakeMods(sass.LopXor, false, false, sass.PT)
	c.emit(x)
	in.Src2 = x.Dst
	c.emit(in)
}

// expandMinMax lowers via ISETP + SEL through the reserved scratch
// predicate P6.
func expandMinMax(c *compiler, in sass.Inst) {
	const scratch = sass.Pred(6)
	sel := sass.NewInst(sass.OpSEL)
	sel.Dst, sel.Src1, sel.Src2 = in.Dst, in.Src1, in.Src2
	sel.Mods = sass.MakeMods(0, false, false, scratch)
	in.Dst = sass.RZ
	in.Mods = sass.MakeMods(in.Mods.SubOp(), false, in.Mods.Flag(), scratch)
	c.emit(in)
	c.emit(sel)
	c.maxPred = max(c.maxPred, int(scratch))
}

// expandDiv is div.approx.f32: MUFU reciprocal, then the multiply.
func expandDiv(c *compiler, in sass.Inst) {
	rcp := sass.NewInst(sass.OpMUFU)
	rcp.Dst, rcp.Src1 = c.tmp(false), in.Src2
	rcp.Mods = sass.MakeMods(sass.MufuRcp, false, false, sass.PT)
	c.emit(rcp)
	in.Src2 = rcp.Dst
	c.emit(in)
}

// expandShr64 is the high-word extraction idiom, a 64-bit right shift by an
// immediate in [32,63]: low = high >> (imm-32), high = 0. General 64-bit
// funnel shifts are not part of the dialect.
func expandShr64(c *compiler, in sass.Inst) {
	if in.Imm < 32 || in.Imm > 63 {
		c.fail("shift must be an immediate in 32..63")
	}
	lo := sass.NewInst(sass.OpSHR)
	lo.Dst, lo.Src1, lo.Imm = in.Dst, in.Src1+1, in.Imm-32
	c.emit(lo)
	c.loadImm(in.Dst+1, 0)
}

// expandZext is cvt.u64.u32: the low word moves, the high word is zeroed.
func expandZext(c *compiler, in sass.Inst) {
	c.move(in.Dst, in.Src1, false)
	c.loadImm(in.Dst+1, 0)
}

// expandMov picks by source: a register moves, an immediate or a shared
// symbol's offset is materialised, a special register is read with S2R.
func expandMov(c *compiler, in sass.Inst) {
	src, wide := &c.args[1], in.Mods.Wide()
	switch {
	case src.kind == opdReg:
		c.move(in.Dst, c.reg(src, classOf(wide)), wide)
	case src.kind == opdImm && wide:
		c.loadImm64(in.Dst, uint64(src.imm))
	case src.kind == opdImm:
		c.loadImm(in.Dst, uint32(src.imm))
	case src.kind == opdSpecial && !wide:
		s2r := sass.NewInst(sass.OpS2R)
		s2r.Dst, s2r.Imm = in.Dst, src.imm
		c.emit(s2r)
	case src.kind == opdSym && !wide:
		off, ok := c.sharedOffset(c.m.name(src))
		if !ok {
			c.fail("bad source %q", c.m.name(src))
		}
		c.loadImm(in.Dst, uint32(off))
	default:
		c.want()
	}
}

// isPair reports whether a call operand is a declared 64-bit register.
func (c *compiler) isPair(o *operand) bool {
	if o.kind != opdReg {
		return false
	}
	d, _ := c.declOf(o)
	return d != nil && d.class == ClassB64
}

// expandCall marshals the arguments into the ABI registers, emits the CAL
// with its relocation and copies the result out of R4.
func expandCall(c *compiler, cal sass.Inst) {
	args := c.args
	name := c.m.name(&args[0])
	if args[0].kind != opdSym || len(args) > 1 && args[1].kind != opdList {
		c.want()
		return
	}
	reg := abiArgBase
	if len(args) > 1 {
		list := c.m.members[args[1].imm:][:args[1].ref]
		for i := range list {
			arg := &list[i]
			wide, n := c.isPair(arg), 1
			if wide {
				reg, n = reg+reg&1, 2 // pairs are even-aligned
			}
			if reg+n > abiArgBase+abiMaxArgs {
				c.fail("too many argument registers")
				return
			}
			c.move(sass.Reg(reg), c.typedValue(arg, wide), wide)
			c.touchReg(sass.Reg(reg), wide)
			reg += n
		}
	}
	c.emit(cal)
	c.relocs = append(c.relocs, Reloc{InstIdx: len(c.out) - 1, Symbol: name})
	if !slices.Contains(c.related, name) {
		c.related = append(c.related, name)
	}
	if len(args) == 3 {
		if args[2].kind != opdList || args[2].ref != 1 {
			c.fail("exactly one return value is supported")
			return
		}
		ret := &c.m.members[args[2].imm]
		wide := c.isPair(ret)
		c.move(c.reg(ret, classOf(wide)), abiArgBase, wide)
	}
}

// expandSetret writes the (single) return value into the ABI result register.
func expandSetret(c *compiler, in sass.Inst) {
	if c.f.entry {
		c.fail("setret in a kernel entry")
	}
	in.Dst = abiArgBase
	c.emit(in)
}
