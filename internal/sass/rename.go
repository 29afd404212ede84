package sass

// This file supports the inline-injection codegen mode: instead of jumping to
// a trampoline that saves live state, calls the tool function and restores,
// the Code Generator can splice the tool body directly into the relocated
// stream after renaming every register the body touches into registers that
// liveness proved dead at the site. BodyFootprint answers "what would have to
// be renamed, and is the body splice-safe at all"; RenameBody performs the
// rewrite under a mapping the Code Generator's allocator produced.

// Footprint describes the architectural state a tool-function body touches.
type Footprint struct {
	// Regs are all general-purpose registers read or written by the body.
	Regs RegSet
	// PairBases marks registers that anchor a 64-bit pair (wide operands and
	// global memory bases): base and base+1 must stay adjacent under any
	// renaming.
	PairBases RegSet
	// Preds are all predicate registers read or written, including guards.
	Preds PredSet
}

// BodyFootprint scans a resolved tool-function body and reports its register
// footprint. ok is false when the body cannot be inlined at all: it contains
// save-frame or device-API operations (those trap without a trampoline's save
// frame), calls, absolute or indirect jumps, whole-bank predicate moves, or a
// relative branch escaping the body. RET instructions are fine — the splice
// turns them into skips over the remainder of the body.
func BodyFootprint(insts []Inst) (Footprint, bool) {
	var fp Footprint
	for pc, in := range insts {
		switch in.Op {
		case OpSAVEPUSH, OpSAVEPOP, OpSTSA, OpLDSA, OpSTSP, OpLDSP, OpSTSB, OpLDSB,
			OpRDREG, OpWRREG, OpRDPRED, OpWRPRED:
			// Save-frame and saved-context ops require the trampoline frame.
			return Footprint{}, false
		case OpCAL, OpJMP, OpBRX:
			// Control transfers whose targets cannot be relocated with the
			// body.
			return Footprint{}, false
		case OpBRA:
			if t := pc + 1 + int(in.Imm); t < 0 || t >= len(insts) {
				return Footprint{}, false // escapes the body
			}
		}
		sh := in.shape()
		if sh.bank != 0 {
			// Whole-bank predicate moves (R2P, P2R pack): no dead renaming
			// exists.
			return Footprint{}, false
		}
		defs, uses, pdefs, puses := DefUse(in)
		fp.Regs = fp.Regs.Union(defs).Union(uses)
		fp.Preds |= pdefs | puses
		for _, s := range sh.slots {
			if r, width, ok := in.reg(sh, s); ok && width == 2 {
				fp.PairBases.Add(*r)
			}
		}
	}
	return fp, true
}

// RenameRegs rewrites, in place, every general-purpose register r of the
// body to to[r]; RZ stays. It is RenameBody for a caller that owns the body
// and renames every register, such as a compiler giving names registers.
func RenameRegs(insts []Inst, to *[NumRegs]Reg) {
	for i := range insts {
		in := &insts[i]
		sh := in.shape()
		for _, s := range sh.slots {
			if r, _, ok := in.reg(sh, s); ok && *r != RZ {
				*r = to[*r]
			}
		}
	}
}

func mapReg(m map[Reg]Reg, r Reg) Reg {
	if n, ok := m[r]; ok {
		return n
	}
	return r
}

func mapPred(m map[Pred]Pred, p Pred) Pred {
	if n, ok := m[p]; ok {
		return n
	}
	return p
}

// RenameBody returns a copy of the body with every general-purpose register
// rewritten through regMap and every predicate through predMap. Registers and
// predicates absent from the maps are left alone (RZ and PT are never
// remapped). The caller must supply entries for both halves of every pair in
// the footprint, mapped to an adjacent pair.
func RenameBody(insts []Inst, regMap map[Reg]Reg, predMap map[Pred]Pred) []Inst {
	out := make([]Inst, len(insts))
	for i, in := range insts {
		in.Pred = mapPred(predMap, in.Pred)
		sh := in.shape()
		for _, s := range sh.slots {
			if r, _, ok := in.reg(sh, s); ok {
				*r = mapReg(regMap, *r)
			} else if p, ok := in.pred(s); ok {
				in.setPred(s, mapPred(predMap, p))
			}
		}
		out[i] = in
	}
	return out
}
