package sass

// This file is the single place that says, per opcode, which Inst fields are
// operands and what each one does. Everything that needs that fact — the
// structured operand view (Operands, MemOperand), def/use and liveness,
// register high-water marks, inline renaming, the assembler and the
// disassembler, and the opcode classifiers — is a loop over this table. Only
// the interpreter (internal/gpu) decodes opcodes on its own.

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
	// alt replaces the row for the sub-ops in the altSubOps bit mask.
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
	src3W  = slot{fSrc3, use | wide}
	auxIn  = slot{fAux, use}
	auxOut = slot{fAux, def}
	imm    = slot{f: fImm}
	mref   = slot{fMRef, use}
	frame  = slot{f: fFrame}
	regImm = slot{fRegImm, use}
)

func ops(slots ...slot) opShape {
	sh := opShape{defined: true, slots: slots}
	for _, s := range slots {
		sh.src3 = sh.src3 || s.f == fSrc3
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

var opShapes = [NumOpcodes]opShape{
	OpNOP: ops(), OpEXIT: ops(), OpRET: ops(), OpBAR: ops(),
	OpBRA: ops(imm), OpJMP: ops(imm), OpCAL: ops(imm),
	OpBRX:   ops(src1, imm),
	OpMOV:   ops(dstW, src1W),
	OpMOVI:  ops(dst, imm),
	OpMOVIH: ops(dst, imm),
	OpS2R:   ops(dst, slot{f: fSpecial}),
	OpP2R:   ops(dst).withBank(use).variant(1<<P2RSingle, ops(dst, auxIn)),
	OpR2P:   ops(src1).withBank(def),
	OpSEL:   ops(dst, src1, src2, auxIn),
	OpIADD:  ops(dstW, src1W, src2W, imm),
	OpIMUL:  ops(dstW, src1W, src2W),
	OpIMAD:  ops(dstW, src1W, src2W, src3W),
	OpISETP: ops(auxOut, src1W, src2W, imm),
	OpSHL:   ops(dstW, src1W, src2W, imm),
	OpSHR:   ops(dstW, src1W, src2W, imm),
	OpLOP:   ops(dstW, src1W, src2W, imm),
	OpPOPC:  ops(dst, src1),
	OpFADD:  ops(dst, src1, src2),
	OpFMUL:  ops(dst, src1, src2),
	OpFFMA:  ops(dstW, src1W, src2W, src3W),
	OpFSETP: ops(auxOut, src1, src2),
	OpMUFU:  ops(dst, src1),
	OpI2F:   ops(dst, src1),
	OpF2I:   ops(dst, src1),
	OpLDG:   mem(MemGlobal, true, false, dstW, mref),
	OpSTG:   mem(MemGlobal, false, true, mref, src2W),
	OpLDS:   mem(MemShared, true, false, dstW, mref),
	OpSTS:   mem(MemShared, false, true, mref, src2W),
	OpLDL:   mem(MemLocal, true, false, dstW, mref),
	OpSTL:   mem(MemLocal, false, true, mref, src2W),
	OpLDC:   mem(MemConst, true, false, dstW, mref),
	OpATOM:  mem(MemGlobal, true, true, dstW, mref, src2W),
	OpRED:   mem(MemGlobal, false, true, mref, src2W),
	OpSHFL:  ops(dst, src1, src2, imm),
	// Every VOTE mode but BALLOT writes a predicate, held in Dst's low bits.
	OpVOTE:  ops(dst, auxIn).variant(^uint8(1<<VoteBallot), ops(slot{fDstPred, def}, auxIn)),
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

var noShape opShape

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
