package sass

import "fmt"

// This file is the single place that says, per opcode, which Inst fields are
// operands, what each one does and which modifiers the opcode takes.
// Everything that needs that fact — the structured operand view (Operands,
// MemOperand), def/use and liveness, register high-water marks, inline
// renaming, the assembler and the disassembler, the opcode classifiers and
// Inst.Check, which the codecs, the assembler and the code-artifact decoder
// call — is a loop over this table. Only the interpreter (internal/gpu)
// decodes opcodes on its own, and it sees no modifier a row does not name.

// field names the part of an Inst one operand slot occupies.
type field uint8

const (
	fDst     field = iota // Inst.Dst, a register
	fSrc1                 // Inst.Src1
	fSrc2                 // Inst.Src2
	fSrc3                 // Inst.Src3
	fAux                  // Mods.Aux, a predicate
	fDstPred              // low three bits of Inst.Dst, a predicate (VOTE.ANY/ALL)
	fImm                  // Inst.Imm
	fSpecial              // Inst.Imm naming a special register
	fMRef                 // [Src1+Imm] in the opcode's memory space
	fFrame                // [Imm], a save-frame slot
	fRegImm               // Src1+Imm, a saved-register index expression
)

// role says what an instruction does with the register or predicate a slot
// names. A memory reference's base register is always a use; which way the
// access goes is the row's load/store.
type role uint8

const (
	use  role = 1 << iota // read
	def                   // written
	wide                  // a register pair when Mods.Wide is set
)

type slot struct {
	f field
	r role
}

// opShape is one row of the table: the operands in assembly order.
type opShape struct {
	defined bool // set by ops: tells a written row from a forgotten one
	slots   []slot
	// bank is an implicit access to the whole predicate bank, which the
	// assembly syntax does not spell: def for R2P/LDSP, use for P2R (pack)
	// and STSP.
	bank role
	// space, load and store classify memory opcodes.
	space       MemSpace
	load, store bool
	src3        bool // has an fSrc3 slot
	wide        bool // has a slot that is a register pair under .W
	aux         bool // has an fAux slot
	special     bool // has an fSpecial slot
	// subOps names the sub-op values the opcode takes, each by the suffix
	// that spells it; "" is a value no suffix spells.
	subOps []string
	// flag is the suffix that spells Mods.Flag, "" where the opcode has none.
	flag string
	// alt replaces the row for the sub-ops in the altSubOps bit mask. The
	// sub-op names and the flag are the base row's.
	altSubOps uint8
	alt       *opShape
}

var (
	dst    = slot{fDst, def}
	dstW   = slot{fDst, def | wide}
	src1   = slot{fSrc1, use}
	src1W  = slot{fSrc1, use | wide}
	src2   = slot{fSrc2, use}
	src2W  = slot{fSrc2, use | wide}
	src3   = slot{fSrc3, use}
	src3W  = slot{fSrc3, use | wide}
	auxIn  = slot{fAux, use}
	auxOut = slot{fAux, def}
	imm    = slot{f: fImm}
	mref   = slot{fMRef, use}
	frame  = slot{f: fFrame}
	regImm = slot{fRegImm, use}
)

func ops(slots ...slot) opShape {
	sh := opShape{defined: true, slots: slots, subOps: []string{""}}
	for _, s := range slots {
		sh.src3 = sh.src3 || s.f == fSrc3
		sh.wide = sh.wide || s.r&wide != 0
		sh.aux = sh.aux || s.f == fAux
		sh.special = sh.special || s.f == fSpecial
	}
	return sh
}

func mem(space MemSpace, load, store bool, slots ...slot) opShape {
	sh := ops(slots...)
	sh.space, sh.load, sh.store = space, load, store
	return sh
}

func (sh opShape) withBank(r role) opShape {
	sh.bank = r
	return sh
}

func (sh opShape) variant(subOps uint8, alt opShape) opShape {
	sh.altSubOps, sh.alt = subOps, &alt
	return sh
}

// named gives the row its sub-op vocabulary and its flag suffix.
func (sh opShape) named(subOps []string, flag string) opShape {
	sh.subOps, sh.flag = subOps, flag
	return sh
}

var opShapes = [NumOpcodes]opShape{
	OpNOP: ops(), OpEXIT: ops(), OpRET: ops(), OpBAR: ops(),
	OpBRA: ops(imm), OpJMP: ops(imm), OpCAL: ops(imm),
	OpBRX:   ops(src1, imm),
	OpMOV:   ops(dstW, src1W),
	OpMOVI:  ops(dst, imm),
	OpMOVIH: ops(slot{fDst, def | use}, imm), // keeps the destination's low 20 bits
	OpS2R:   ops(dst, slot{f: fSpecial}),
	OpP2R:   ops(dst).withBank(use).named([]string{"", "ONE"}, "").variant(1<<P2RSingle, ops(dst, auxIn)),
	OpR2P:   ops(src1).withBank(def),
	OpSEL:   ops(dst, src1, src2, auxIn),
	OpIADD:  ops(dstW, src1W, src2W, imm),
	OpIMUL:  ops(dst, src1, src2),
	OpIMAD:  ops(dstW, src1, src2, src3W), // .W: 32x32 unsigned product plus a 64-bit addend
	OpISETP: ops(auxOut, src1, src2, imm).named(cmpNames[:], "U32"),
	OpSHL:   ops(dst, src1, src2, imm),
	OpSHR:   ops(dst, src1, src2, imm),
	OpLOP:   ops(dst, src1, src2, imm).named(lopNames[:], ""),
	OpPOPC:  ops(dst, src1),
	OpFADD:  ops(dst, src1, src2),
	OpFMUL:  ops(dst, src1, src2),
	OpFFMA:  ops(dst, src1, src2, src3),
	OpFSETP: ops(auxOut, src1, src2).named(cmpNames[:], ""),
	OpMUFU:  ops(dst, src1).named(mufuNames[:], ""),
	OpI2F:   ops(dst, src1),
	OpF2I:   ops(dst, src1),
	OpLDG:   mem(MemGlobal, true, false, dstW, mref),
	OpSTG:   mem(MemGlobal, false, true, mref, src2W),
	OpLDS:   mem(MemShared, true, false, dstW, mref),
	OpSTS:   mem(MemShared, false, true, mref, src2W),
	OpLDL:   mem(MemLocal, true, false, dstW, mref),
	OpSTL:   mem(MemLocal, false, true, mref, src2W),
	OpLDC:   mem(MemConst, true, false, dstW, mref).named(make([]string, 8), ""), // the bank, spelled c[n]
	OpATOM:  mem(MemGlobal, true, true, dstW, mref, src2W).named(atomNames[:], "F"),
	OpRED:   mem(MemGlobal, false, true, mref, src2W).named(atomNames[:], "F"),
	OpSHFL:  ops(dst, src1, src2, imm).named(shflNames[:], ""),
	// Every VOTE mode but BALLOT writes a predicate, held in Dst's low bits.
	OpVOTE:  ops(dst, auxIn).named(voteNames[:], "").variant(^uint8(1<<VoteBallot), ops(slot{fDstPred, def}, auxIn)),
	OpMATCH: ops(dst, src1W),
	// WFFT32 transforms the (re, im) registers in place.
	OpWFFT32:   ops(slot{fDst, def | use}, slot{fSrc1, def | use}),
	OpSAVEPUSH: ops(imm),
	OpSAVEPOP:  ops(),
	OpSTSA:     ops(frame, src1),
	OpLDSA:     ops(dst, frame),
	OpSTSP:     ops().withBank(use),
	OpLDSP:     ops().withBank(def),
	OpSTSB:     ops(),
	OpLDSB:     ops(),
	OpRDREG:    ops(dst, regImm),
	OpWRREG:    ops(regImm, src2),
	OpRDPRED:   ops(dst),
	OpWRPRED:   ops(src2),
}

var noShape = ops()

// shape returns the opcode's base row.
func (op Opcode) shape() *opShape {
	if !op.Valid() {
		return &noShape
	}
	return &opShapes[op]
}

// shape returns the row for this instruction's sub-op.
func (in *Inst) shape() *opShape {
	sh := in.Op.shape()
	if sh.altSubOps>>in.Mods.SubOp()&1 != 0 {
		return sh.alt
	}
	return sh
}

// reg returns the register a slot names and how many consecutive registers
// it spans: a pair for wide data and for the 64-bit base of a global memory
// reference. ok is false for slots that name no register.
func (in *Inst) reg(sh *opShape, s slot) (r *Reg, width int, ok bool) {
	switch s.f {
	case fDst:
		r = &in.Dst
	case fSrc1, fRegImm:
		r = &in.Src1
	case fSrc2:
		r = &in.Src2
	case fSrc3:
		r = &in.Src3
	case fMRef:
		if sh.space == MemGlobal {
			return &in.Src1, 2, true
		}
		return &in.Src1, 1, true
	default:
		return nil, 0, false
	}
	if s.r&wide != 0 && in.Mods.Wide() {
		return r, 2, true
	}
	return r, 1, true
}

// pred returns the predicate a slot names; ok is false for other slots.
func (in *Inst) pred(s slot) (p Pred, ok bool) {
	switch s.f {
	case fAux:
		return in.Mods.Aux(), true
	case fDstPred:
		return Pred(in.Dst & 7), true
	}
	return PT, false
}

// setPred stores p in the predicate slot s.
func (in *Inst) setPred(s slot, p Pred) {
	if s.f == fAux {
		in.Mods = in.Mods.withAux(p)
	} else {
		in.Dst = Reg(p)
	}
}

// checkTable has bit m of checkTable[op] set when op's row names every
// modifier of Mods value m: a sub-op from its vocabulary, the flag only where
// it names a suffix, .W only where a slot is a register pair and an Aux other
// than PT only where a slot is a predicate.
var checkTable = func() (t [NumOpcodes][4]uint64) {
	for op := range t {
		for m := 0; m < 256; m++ {
			in := Inst{Op: Opcode(op), Mods: Mods(m)}
			base, sh := in.Op.shape(), in.shape()
			if in.Mods.SubOp() < len(base.subOps) && (!in.Mods.Wide() || sh.wide) &&
				(!in.Mods.Flag() || base.flag != "") && (in.Mods.Aux() == PT || sh.aux) {
				t[op][m>>6] |= 1 << (m & 63)
			}
		}
	}
	return t
}()

// legal reports whether Check accepts the instruction. It is small enough to
// inline, so the codecs call it first and Check only for the error.
func (in *Inst) legal() bool {
	op := in.Op
	return int(op) < len(checkTable) && checkTable[op][in.Mods>>6]>>(in.Mods&63)&1 != 0 &&
		(!opShapes[op].special || uint64(in.Imm) < NumSpecialRegs)
}

// Check reports an error when the instruction carries what its opcode's row
// does not name: a modifier checkTable refuses, or a special-register source
// outside the table. Both codecs, the assembler and the code-artifact decoder
// refuse such an instruction, so the interpreter never sees one. The error
// names the opcode; the caller says where the instruction came from.
func (in *Inst) Check() error {
	switch m := in.Mods; {
	case in.legal():
		return nil
	case !in.Op.Valid():
		return fmt.Errorf("invalid opcode %d", in.Op)
	case in.Op.shape().special && uint64(in.Imm) >= NumSpecialRegs:
		return fmt.Errorf("%v of special register %d", in.Op, in.Imm)
	default:
		return fmt.Errorf("%v takes no mods %#02x (sub-op %d, wide %t, flag %t, aux %v)", in.Op, uint8(m), m.SubOp(), m.Wide(), m.Flag(), m.Aux())
	}
}
