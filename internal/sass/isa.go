// Package sass defines the synthetic SASS-like machine ISA used throughout
// this NVBit reproduction.
//
// Real SASS is the undocumented native machine language of NVIDIA GPUs; its
// encodings change across architecture families (64-bit instruction words on
// Kepler/Maxwell/Pascal, 128-bit words on Volta). This package reproduces the
// properties the NVBit core actually depends on: fixed-width per-family binary
// encodings, up to 255 general-purpose registers plus a zero register, seven
// guard predicates plus an always-true predicate, relative and absolute
// control flow, indirect branches, predication on every instruction, and a
// small runtime opcode group used by the framework's save/restore routines
// and device API (the analog of the pre-built device functions embedded in
// libnvbit.a).
package sass

import (
	"fmt"
	"strconv"
	"strings"
)

// Family identifies a GPU architecture family. The instruction width and the
// opcode numbering differ per family; the hardware abstraction layer in the
// NVBit core selects the matching codec at context initialization.
type Family int

const (
	Kepler Family = iota
	Maxwell
	Pascal
	Volta
)

var familyNames = [...]string{"Kepler", "Maxwell", "Pascal", "Volta"}

func (f Family) String() string {
	if f < Kepler || f > Volta {
		return fmt.Sprintf("Family(%d)", int(f))
	}
	return familyNames[f]
}

// ParseFamily maps a family name in any letter case ("volta", "Volta") to
// its Family; an unknown name fails with an error listing the accepted ones.
func ParseFamily(name string) (Family, error) {
	for f, n := range familyNames {
		if strings.EqualFold(name, n) {
			return Family(f), nil
		}
	}
	return 0, fmt.Errorf("unknown family %q (want %s)", name, strings.ToLower(strings.Join(familyNames[:], ", ")))
}

// InstBytes returns the fixed instruction width in bytes for the family.
func (f Family) InstBytes() int {
	if f == Volta {
		return 16
	}
	return 8
}

// Reg is a general-purpose register index. R0..R254 are ordinary registers;
// RZ (255) reads as zero and discards writes, as on real GPUs.
type Reg uint8

// RZ is the zero register.
const RZ Reg = 255

// NumRegs is the number of allocatable general-purpose registers per thread.
const NumRegs = 255

// regNames holds every register's assembly name, so that printing one is a
// table read.
var regNames = func() (t [256]string) {
	for r := range t {
		t[r] = "R" + strconv.Itoa(r)
	}
	t[RZ] = "RZ"
	return t
}()

func (r Reg) String() string { return regNames[r] }

// Pred is a predicate register index. P0..P6 are ordinary predicates; PT (7)
// is hardwired true and discards writes.
type Pred uint8

// PT is the always-true predicate.
const PT Pred = 7

// NumPreds is the number of writable predicate registers per thread.
const NumPreds = 7

var predNames = [...]string{"P0", "P1", "P2", "P3", "P4", "P5", "P6", "PT"}

func (p Pred) String() string { return numbered(predNames[:], "P", int64(p)) }

// numbered returns names[i], or prefix followed by i in decimal for an index
// past the table (only a hand-built Inst carries one).
func numbered(names []string, prefix string, i int64) string {
	if i >= 0 && i < int64(len(names)) {
		return names[i]
	}
	return prefix + strconv.FormatInt(i, 10)
}

// Opcode enumerates the synthetic SASS operations. The numeric values here
// are the canonical (family-independent) identifiers; each family permutes
// them into its own encoding space (see codec.go), which is why disassembly
// must go through the family codec.
type Opcode uint8

const (
	OpNOP Opcode = iota
	OpEXIT
	// Control flow.
	OpBRA // relative branch: target = next PC + imm (in words)
	OpJMP // absolute jump: target = imm (word index in code segment)
	OpBRX // indirect branch: target word index = reg[Src1] + imm (ICF)
	OpCAL // absolute call: pushes return PC on the per-thread call stack
	OpRET // return: pops the call stack
	OpBAR // CTA-wide barrier
	// Data movement.
	OpMOV   // Dst = Src1 (wide: register pair)
	OpMOVI  // Dst = sign-extended immediate
	OpMOVIH // Dst = (Dst & 0x000fffff) | imm<<20  (32-bit immediate completion on 64-bit families)
	OpS2R   // Dst = special register selected by Imm
	OpP2R   // Dst = packed predicates (Mods&ModAuxValid: single predicate AuxPred as 0/1)
	OpR2P   // predicates = unpacked from Src1
	OpSEL   // Dst = AuxPred ? Src1 : Src2
	// Integer arithmetic and logic.
	OpIADD  // Dst = Src1 + Src2 + imm
	OpIMUL  // Dst = Src1 * Src2
	OpIMAD  // Dst = Src1 * Src2 + Src3
	OpISETP // PDst = Src1 <cmp> (Src2 + imm), signed
	OpSHL   // Dst = Src1 << (Src2 + imm)
	OpSHR   // Dst = Src1 >> (Src2 + imm), logical
	OpLOP   // Dst = Src1 <logic Mods> Src2|imm: AND/OR/XOR/NOT
	OpPOPC  // Dst = popcount(Src1)
	// Floating point (f32; wide variants are unsupported — see DESIGN.md).
	OpFADD  // Dst = Src1 + Src2
	OpFMUL  // Dst = Src1 * Src2
	OpFFMA  // Dst = Src1 * Src2 + Src3
	OpFSETP // PDst = Src1 <cmp> Src2, float
	OpMUFU  // multifunction unit: Dst = f(Src1), f in Mods (rcp/rsqrt/sqrt/sin/cos/ex2/lg2)
	OpI2F   // Dst = float(Src1 as int32)
	OpF2I   // Dst = int32(Src1 as float)
	// Memory. Wide mod selects 64-bit access through a register pair.
	// Global/local addresses are 64-bit and are held in register pairs
	// (Src1, Src1+1) with an immediate byte offset, as in the paper's
	// Listing 8 address reconstruction.
	OpLDG  // Dst = global[(Src1 pair)+imm]
	OpSTG  // global[(Src1 pair)+imm] = Src2
	OpLDS  // Dst = shared[Src1+imm]
	OpSTS  // shared[Src1+imm] = Src2
	OpLDL  // Dst = local[Src1+imm]
	OpSTL  // local[Src1+imm] = Src2
	OpLDC  // Dst = constbank[Mods.CBank][Src1+imm]
	OpATOM // Dst = old; global[(Src1 pair)+imm] = op(old, Src2); op in Mods
	OpRED  // reduction: ATOM without return value
	// Warp-wide operations (operate over the current active mask).
	OpSHFL  // Dst = lane-shuffled Src1; mode in Mods; delta/idx = Src2+imm
	OpVOTE  // ballot: Dst = mask of lanes with AuxPred true; any/all: PDst
	OpMATCH // Dst = mask of active lanes whose Src1 (pair if wide) equals this lane's
	// Hypothetical ISA-extension instruction (paper Section 6.3).
	OpWFFT32 // warp-wide 32-point FFT: in-place on (Src1 pair interpreted as re,im regs)
	// NVBit runtime group: the synthetic equivalents of the pre-built
	// save/restore device functions embedded in libnvbit.a and of the
	// NVBit device API (paper Listing 7). SAVEPUSH/SAVEPOP manage a
	// per-thread save-area frame; STSA/LDSA move one GPR, STSP/LDSP the
	// packed predicates, STSB/LDSB the Volta convergence-barrier state.
	OpSAVEPUSH // push a save frame with room for Imm GPR slots
	OpSAVEPOP  // pop the innermost save frame
	OpSTSA     // saveframe[Imm] = reg Src1 (bypasses the register read crossbar)
	OpLDSA     // reg Dst = saveframe[Imm]
	OpSTSP     // saveframe.preds = packed predicates
	OpLDSP     // packed predicates = saveframe.preds
	OpSTSB     // saveframe.barrier = convergence barrier state (Volta ABI)
	OpLDSB     // convergence barrier state = saveframe.barrier
	// NVBit device API (Listing 7): read/write the *saved* image of the
	// interrupted thread context so that writes survive the restore.
	OpRDREG  // Dst = savedregs[Src1+Imm]
	OpWRREG  // savedregs[Src1+Imm] = Src2
	OpRDPRED // Dst = saved packed predicates
	OpWRPRED // saved packed predicates = Src2

	opCount // sentinel
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(opCount)

var opNames = [...]string{
	OpNOP: "NOP", OpEXIT: "EXIT",
	OpBRA: "BRA", OpJMP: "JMP", OpBRX: "BRX", OpCAL: "CAL", OpRET: "RET", OpBAR: "BAR",
	OpMOV: "MOV", OpMOVI: "MOVI", OpMOVIH: "MOVIH", OpS2R: "S2R", OpP2R: "P2R", OpR2P: "R2P", OpSEL: "SEL",
	OpIADD: "IADD", OpIMUL: "IMUL", OpIMAD: "IMAD", OpISETP: "ISETP",
	OpSHL: "SHL", OpSHR: "SHR", OpLOP: "LOP", OpPOPC: "POPC",
	OpFADD: "FADD", OpFMUL: "FMUL", OpFFMA: "FFMA", OpFSETP: "FSETP", OpMUFU: "MUFU",
	OpI2F: "I2F", OpF2I: "F2I",
	OpLDG: "LDG", OpSTG: "STG", OpLDS: "LDS", OpSTS: "STS", OpLDL: "LDL", OpSTL: "STL",
	OpLDC: "LDC", OpATOM: "ATOM", OpRED: "RED",
	OpSHFL: "SHFL", OpVOTE: "VOTE", OpMATCH: "MATCH", OpWFFT32: "WFFT32",
	OpSAVEPUSH: "SAVEPUSH", OpSAVEPOP: "SAVEPOP",
	OpSTSA: "STSA", OpLDSA: "LDSA", OpSTSP: "STSP", OpLDSP: "LDSP", OpSTSB: "STSB", OpLDSB: "LDSB",
	OpRDREG: "RDREG", OpWRREG: "WRREG", OpRDPRED: "RDPRED", OpWRPRED: "WRPRED",
}

func (op Opcode) String() string { return numbered(opNames[:], "OP", int64(op)) }

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return int(op) < NumOpcodes }

// IsControlFlow reports whether the opcode redirects the program counter.
func (op Opcode) IsControlFlow() bool {
	switch op {
	case OpBRA, OpJMP, OpBRX, OpCAL, OpRET, OpEXIT:
		return true
	}
	return false
}

// IsRelativeBranch reports whether the opcode's immediate is a PC-relative
// word offset that the code generator must re-adjust when relocating the
// instruction into a trampoline (paper Section 5.1, step 5).
func (op Opcode) IsRelativeBranch() bool { return op == OpBRA }

// IsLoad reports whether the opcode reads memory into a register.
func (op Opcode) IsLoad() bool { return op.shape().load }

// IsStore reports whether the opcode writes memory.
func (op Opcode) IsStore() bool { return op.shape().store }

// MemSpace identifies the memory space an instruction references. It mirrors
// the paper's Instr::getMemOpType values (NONE, GLOBAL, SHARED, LOCAL, CONST).
type MemSpace int

const (
	MemNone MemSpace = iota
	MemGlobal
	MemShared
	MemLocal
	MemConst
)

var memSpaceNames = [...]string{"NONE", "GLOBAL", "SHARED", "LOCAL", "CONSTANT"}

func (s MemSpace) String() string {
	if s < MemNone || s > MemConst {
		return fmt.Sprintf("MemSpace(%d)", int(s))
	}
	return memSpaceNames[s]
}

// MemOpSpace returns the memory space referenced by the opcode.
func (op Opcode) MemOpSpace() MemSpace { return op.shape().space }

// Special register identifiers for S2R (values of Inst.Imm).
const (
	SRLaneID = iota
	SRWarpID
	SRTIDX
	SRTIDY
	SRTIDZ
	SRCTAIDX
	SRCTAIDY
	SRCTAIDZ
	SRNTIDX
	SRNTIDY
	SRNTIDZ
	SRNCTAIDX
	SRNCTAIDY
	SRNCTAIDZ
	SRClock
	SRSMID
	NumSpecialRegs
)

var srNames = [...]string{
	"SR_LANEID", "SR_WARPID",
	"SR_TID.X", "SR_TID.Y", "SR_TID.Z",
	"SR_CTAID.X", "SR_CTAID.Y", "SR_CTAID.Z",
	"SR_NTID.X", "SR_NTID.Y", "SR_NTID.Z",
	"SR_NCTAID.X", "SR_NCTAID.Y", "SR_NCTAID.Z",
	"SR_CLOCK", "SR_SMID",
}

// SpecialRegName returns the assembly name of an S2R source.
func SpecialRegName(id int64) string { return numbered(srNames[:], "SR_", id) }
