package sass

import "fmt"

// OperandKind classifies a structured operand, mirroring the operand_t types
// that NVBit's Instr::getOperand exposes (paper Listing 4 and Listing 8).
type OperandKind int

const (
	OpdReg     OperandKind = iota // general-purpose register (pair if Wide)
	OpdPred                       // predicate register
	OpdImm                        // immediate value
	OpdMRef                       // memory reference: space, base register, offset
	OpdSpecial                    // special register (S2R source)
)

var opdKindNames = [...]string{"REG", "PRED", "IMM", "MREF", "SPECIAL"}

func (k OperandKind) String() string {
	if k >= 0 && int(k) < len(opdKindNames) {
		return opdKindNames[k]
	}
	return fmt.Sprintf("OperandKind(%d)", int(k))
}

// Operand is one structured operand of an instruction, destination first in
// the order returned by Inst.Operands.
type Operand struct {
	Kind OperandKind
	Dst  bool // true when the operand is written

	Reg  Reg  // OpdReg
	Wide bool // OpdReg / OpdMRef: 64-bit datum via register pair

	Pred Pred // OpdPred

	Imm int64 // OpdImm value, or OpdSpecial register id

	// OpdMRef fields. Global references use a 64-bit base held in the
	// register pair (Base, Base+1); shared, local and constant references
	// use a single 32-bit base register. Wide refers to the datum width.
	Space  MemSpace
	Base   Reg
	Offset int64
	CBank  int // OpdMRef with Space == MemConst
}

// Operands returns the structured operand list of the instruction,
// destination first. This is the data model behind the NVBit inspection API's
// getNumOperands/getOperand methods.
func (in Inst) Operands() []Operand {
	sh := in.shape()
	if len(sh.slots) == 0 {
		return nil
	}
	out := make([]Operand, 0, len(sh.slots)+1)
	for _, s := range sh.slots {
		o := Operand{Dst: s.r&def != 0}
		switch s.f {
		case fImm, fFrame:
			o.Kind, o.Imm = OpdImm, in.Imm
		case fSpecial:
			o.Kind, o.Imm = OpdSpecial, in.Imm
		case fMRef:
			o = Operand{Kind: OpdMRef, Dst: sh.store, Space: sh.space, Base: in.Src1, Offset: in.Imm, Wide: in.Mods.Wide()}
			if sh.space == MemConst {
				o.CBank = in.Mods.SubOp()
			}
		case fRegImm:
			out = append(out, Operand{Kind: OpdReg, Reg: in.Src1})
			o.Kind, o.Imm = OpdImm, in.Imm
		default:
			if p, ok := in.pred(s); ok {
				o.Kind, o.Pred = OpdPred, p
			} else {
				r, width, _ := in.reg(sh, s)
				o.Kind, o.Reg, o.Wide = OpdReg, *r, width == 2
			}
		}
		out = append(out, o)
	}
	return out
}

// MemOperand returns the memory-reference operand of the instruction, if any.
func (in Inst) MemOperand() (Operand, bool) {
	for _, o := range in.Operands() {
		if o.Kind == OpdMRef {
			return o, true
		}
	}
	return Operand{}, false
}
