package sass

// Mods packs the per-opcode modifier bits of an instruction. The field is a
// union: its meaning depends on the opcode, exactly as modifier bits do in
// real machine encodings. Which values each opcode takes is its row of the
// operand-shape table (shape.go); Inst.Check refuses any other.
//
// Layout (8 bits):
//
//	bits 0..2  SubOp  — comparison op (ISETP/FSETP), atomic op (ATOM/RED),
//	                    MUFU function, SHFL mode, VOTE mode, LOP op,
//	                    constant bank (LDC), P2R mode
//	bit  3     Wide   — 64-bit datum through an aligned register pair
//	bit  4     Flag   — unsigned compare (ISETP); float atomic (ATOM/RED)
//	bits 5..7  Aux    — auxiliary predicate: the predicate *destination* for
//	                    ISETP/FSETP, the predicate *source* for SEL/VOTE/P2R
type Mods uint8

const (
	modWide Mods = 1 << 3
	modFlag Mods = 1 << 4
)

// MakeMods assembles a Mods value from its fields.
func MakeMods(subOp int, wide, flag bool, aux Pred) Mods {
	m := Mods(subOp & 7)
	if wide {
		m |= modWide
	}
	if flag {
		m |= modFlag
	}
	m |= Mods(aux&7) << 5
	return m
}

// SubOp returns the 3-bit sub-operation selector.
func (m Mods) SubOp() int { return int(m & 7) }

// Wide reports whether the instruction operates on a 64-bit register pair.
func (m Mods) Wide() bool { return m&modWide != 0 }

// Flag returns the per-opcode flag bit (unsigned compare / float atomic).
func (m Mods) Flag() bool { return m&modFlag != 0 }

// Aux returns the auxiliary predicate field.
func (m Mods) Aux() Pred { return Pred(m >> 5) }

// withAux returns m with the auxiliary predicate field replaced.
func (m Mods) withAux(p Pred) Mods { return m&0x1f | Mods(p&7)<<5 }

// Comparison sub-operations (ISETP, FSETP).
const (
	CmpEQ = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"EQ", "NE", "LT", "LE", "GT", "GE"}

// Atomic sub-operations (ATOM, RED).
const (
	AtomAdd = iota
	AtomMin
	AtomMax
	AtomExch
	AtomAnd
	AtomOr
	AtomXor
)

var atomNames = [...]string{"ADD", "MIN", "MAX", "EXCH", "AND", "OR", "XOR"}

// MUFU sub-operations.
const (
	MufuRcp = iota
	MufuRsq
	MufuSqrt
	MufuSin
	MufuCos
	MufuEx2
	MufuLg2
)

var mufuNames = [...]string{"RCP", "RSQ", "SQRT", "SIN", "COS", "EX2", "LG2"}

// SHFL modes.
const (
	ShflUp = iota
	ShflDown
	ShflBfly
	ShflIdx
)

var shflNames = [...]string{"UP", "DOWN", "BFLY", "IDX"}

// VOTE modes.
const (
	VoteBallot = iota
	VoteAny
	VoteAll
)

var voteNames = [...]string{"BALLOT", "ANY", "ALL"}

// LOP sub-operations.
const (
	LopAnd = iota
	LopOr
	LopXor
	LopNot
)

var lopNames = [...]string{"AND", "OR", "XOR", "NOT"}

// P2R modes.
const (
	P2RPack   = iota // Dst = all predicates packed into low bits
	P2RSingle        // Dst = Aux predicate as 0/1
)

// SubOpName returns the assembly suffix that spells sub-op s of the opcode:
// "" for a value no suffix spells (P2R's pack mode, an LDC bank, the one
// sub-op of an opcode without a vocabulary), "SUB<s>" for one its row does not
// name.
func (op Opcode) SubOpName(s int) string { return numbered(op.shape().subOps, "SUB", int64(s)) }

// Inst is one decoded machine instruction. It is the working representation
// shared by the assembler, the simulator's execution engine, and the NVBit
// core's instruction lifter.
type Inst struct {
	Op      Opcode
	Pred    Pred // guard predicate; PT when unguarded
	PredNeg bool // guard on !Pred
	Dst     Reg  // destination register (RZ when unused)
	Src1    Reg
	Src2    Reg
	Src3    Reg   // third source (IMAD/FFMA); RZ when unused
	Imm     int64 // immediate; for 3-source ops on 64-bit families must be 0
	Mods    Mods
}

// Guarded reports whether the instruction carries a non-trivial guard.
func (in Inst) Guarded() bool { return in.Pred != PT || in.PredNeg }

// HasSrc3 reports whether the opcode uses a third register source.
func (in Inst) HasSrc3() bool { return in.Op.shape().src3 }

// NewInst returns an instruction with the conventional zero-operand defaults
// (unguarded, RZ sources/destination, PT aux).
func NewInst(op Opcode) Inst {
	return Inst{Op: op, Pred: PT, Dst: RZ, Src1: RZ, Src2: RZ, Src3: RZ, Mods: MakeMods(0, false, false, PT)}
}
