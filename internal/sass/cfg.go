package sass

// branchTarget returns the word index targeted by a direct control-flow
// instruction at word index pc, and whether the instruction has a statically
// known target. BRA targets are PC-relative; JMP/CAL targets are absolute
// word indexes. BRX (indirect control flow) has no static target.
func branchTarget(in Inst, pc int) (int, bool) {
	switch in.Op {
	case OpBRA:
		return pc + 1 + int(in.Imm), true
	case OpJMP, OpCAL:
		return int(in.Imm), true
	}
	return 0, false
}

// HasICF reports whether the function body contains indirect control flow
// (BRX). Per the paper (Section 4), the basic-block view is unavailable in
// that case and tools must fall back to the flat instruction view.
func HasICF(insts []Inst) bool {
	for _, in := range insts {
		if in.Op == OpBRX {
			return true
		}
	}
	return false
}

// BasicBlocks partitions the static instructions of a function into basic
// blocks, returned as ranges of word indexes [Start, End). Blocks are formed
// by grouping consecutive program counters up to (a) the PC before a control
// flow instruction's successor and (b) any PC that is the target of a control
// flow instruction — the construction described in the paper's Section 4.
//
// ok is false when the function contains indirect control flow; callers must
// then use the flat view.
type BlockRange struct {
	Start, End int // word indexes, End exclusive
}

// BasicBlocks computes the basic-block partition. See BlockRange.
func BasicBlocks(insts []Inst) (blocks []BlockRange, ok bool) {
	if HasICF(insts) {
		return nil, false
	}
	if len(insts) == 0 {
		return nil, true
	}
	leader := make([]bool, len(insts)+1)
	leader[0] = true
	for pc, in := range insts {
		if t, ok := branchTarget(in, pc); ok {
			if t >= 0 && t < len(insts) {
				leader[t] = true
			}
		}
		if in.Op.IsControlFlow() {
			leader[pc+1] = true
		}
	}
	start := 0
	for pc := 1; pc <= len(insts); pc++ {
		if pc == len(insts) || leader[pc] {
			blocks = append(blocks, BlockRange{start, pc})
			start = pc
		}
	}
	return blocks, true
}
