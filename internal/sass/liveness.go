package sass

import "math/bits"

// This file implements the backward register-liveness dataflow analysis the
// Code Generator uses to size each trampoline's save set (paper Section 5.1:
// "NVBit saves only the minimum amount of general purpose registers"). The
// analysis operates on the same decoded instruction stream the lifter
// produces, reuses the basic-block construction of cfg.go, and degrades to a
// conservative all-live answer when the function contains indirect control
// flow — the same condition under which the basic-block view itself is
// unavailable (Section 4).

// RegSet is a bit set over the general-purpose register file R0..R254. RZ is
// never a member: it is the hardwired zero register and carries no state.
type RegSet [4]uint64

// Add inserts register r. RZ is ignored.
func (s *RegSet) Add(r Reg) {
	if r == RZ {
		return
	}
	s[r>>6] |= 1 << (r & 63)
}

// AddRange inserts the width-register sequence starting at r (a register
// pair when width is 2). RZ-based entries are ignored.
func (s *RegSet) AddRange(r Reg, width int) {
	for k := 0; k < width; k++ {
		if int(r)+k >= NumRegs {
			return
		}
		s.Add(r + Reg(k))
	}
}

// Has reports whether register r is a member.
func (s RegSet) Has(r Reg) bool {
	if r == RZ {
		return false
	}
	return s[r>>6]&(1<<(r&63)) != 0
}

// Union returns the set union.
func (s RegSet) Union(o RegSet) RegSet {
	for i := range s {
		s[i] |= o[i]
	}
	return s
}

// Diff returns the set difference s − o.
func (s RegSet) Diff(o RegSet) RegSet {
	for i := range s {
		s[i] &^= o[i]
	}
	return s
}

// Intersect returns the set intersection.
func (s RegSet) Intersect(o RegSet) RegSet {
	for i := range s {
		s[i] &= o[i]
	}
	return s
}

// Count returns the number of member registers.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool { return s == RegSet{} }

// Max returns the highest member register index, or -1 for the empty set.
func (s RegSet) Max() int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			return i*64 + bits.Len64(s[i]) - 1
		}
	}
	return -1
}

// Regs returns the members in ascending order.
func (s RegSet) Regs() []Reg {
	out := make([]Reg, 0, s.Count())
	for i := 0; i < NumRegs; i++ {
		if s.Has(Reg(i)) {
			out = append(out, Reg(i))
		}
	}
	return out
}

// RegRange returns the set {R0 .. R(n-1)}, clamped to the register file.
func RegRange(n int) RegSet {
	if n > NumRegs {
		n = NumRegs
	}
	var s RegSet
	for i := 0; i < n; i++ {
		s.Add(Reg(i))
	}
	return s
}

// allRegs returns the full register file R0..R254.
func allRegs() RegSet { return RegRange(NumRegs) }

// PredSet is a bit set over the predicate registers P0..P6. PT is never a
// member.
type PredSet uint8

// AllPreds is the full predicate bank.
const AllPreds PredSet = 1<<NumPreds - 1

// Add inserts predicate p. PT is ignored.
func (s *PredSet) Add(p Pred) {
	if p == PT {
		return
	}
	*s |= 1 << (p & 7)
}

// Has reports whether predicate p is a member.
func (s PredSet) Has(p Pred) bool {
	if p == PT {
		return false
	}
	return s&(1<<(p&7)) != 0
}

// Count returns the number of member predicates.
func (s PredSet) Count() int { return bits.OnesCount8(uint8(s)) }

// DefUse returns the registers and predicates the instruction writes (defs)
// and reads (uses), as the operand-shape table gives them, plus the guard
// predicate, which is a use. Global memory references read a 64-bit base
// register pair; R2P/LDSP overwrite the whole predicate bank, P2R (pack) and
// STSP read all of it.
func DefUse(in Inst) (defs, uses RegSet, pdefs, puses PredSet) {
	puses.Add(in.Pred)
	sh := in.shape()
	for _, s := range sh.slots {
		if r, width, ok := in.reg(sh, s); ok {
			if s.r&def != 0 {
				defs.AddRange(*r, width)
			}
			if s.r&use != 0 {
				uses.AddRange(*r, width)
			}
		} else if p, ok := in.pred(s); ok {
			if s.r&def != 0 {
				pdefs.Add(p)
			} else {
				puses.Add(p)
			}
		}
	}
	if sh.bank&def != 0 {
		pdefs = AllPreds
	}
	if sh.bank&use != 0 {
		puses = AllPreds
	}
	return defs, uses, pdefs, puses
}

// Liveness holds the per-instruction result of the backward dataflow pass.
// A conservative instance (indirect control flow) reports every register and
// predicate live everywhere.
type Liveness struct {
	conservative bool

	defs, uses []RegSet
	in, out    []RegSet

	pdefs, puses []PredSet
	pin, pout    []PredSet

	regBuf  []RegSet  // one array behind defs, uses, in and out
	predBuf []PredSet // and behind the four predicate slices
}

// AnalyzeLiveness runs the backward liveness fixed point over the function
// body. Successors follow the cfg.go model: BRA is PC-relative, JMP is
// absolute, EXIT kills the thread, and a branch leaving the function body (or
// a RET) escapes to unknown code, so everything is live across it. CAL
// transfers to a related function whose body is not visible here, so
// everything is conservatively live before a call. Functions with indirect
// control flow (BRX) get a fully conservative instance, matching the paper's
// flat-view degradation.
func AnalyzeLiveness(insts []Inst) *Liveness { return AnalyzeLivenessWith(insts, nil, nil) }

// AnalyzeLivenessWith is AnalyzeLiveness with extra reads: instruction pc
// also uses uses[pc] and puses[pc] (nil slices add nothing). The Code
// Generator adds what injected calls read, which keeps those registers and
// predicates live back to where the application last wrote them.
func AnalyzeLivenessWith(insts []Inst, uses []RegSet, puses []PredSet) *Liveness {
	l := new(Liveness)
	l.analyze(insts, uses, puses)
	return l
}

// Reanalyze is AnalyzeLiveness into l, reusing the storage of l's previous
// result: a caller that analyzes many small bodies keeps one Liveness.
func (l *Liveness) Reanalyze(insts []Inst) { l.analyze(insts, nil, nil) }

// quarters returns buf resized to 4n and zeroed, reusing its storage when it
// fits, and its four length-n quarters.
func quarters[T any](buf []T, n int) (all, a, b, c, d []T) {
	if cap(buf) < 4*n {
		buf = make([]T, 4*n)
	} else {
		buf = buf[:4*n]
		clear(buf)
	}
	return buf, buf[:n:n], buf[n : 2*n : 2*n], buf[2*n : 3*n : 3*n], buf[3*n:]
}

func (l *Liveness) analyze(insts []Inst, uses []RegSet, puses []PredSet) {
	if l.conservative = HasICF(insts); l.conservative {
		return
	}
	n := len(insts)
	l.regBuf, l.defs, l.uses, l.in, l.out = quarters(l.regBuf, n)
	l.predBuf, l.pdefs, l.puses, l.pin, l.pout = quarters(l.predBuf, n)
	for pc, in := range insts {
		l.defs[pc], l.uses[pc], l.pdefs[pc], l.puses[pc] = DefUse(in)
		if uses != nil {
			l.uses[pc] = l.uses[pc].Union(uses[pc])
			l.puses[pc] |= puses[pc]
		}
	}
	// succs/escape per instruction. An escape edge (RET, off-body branch,
	// falling off the end) makes everything live-out.
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			in := insts[pc]
			var out RegSet
			var pout PredSet
			addSucc := func(s int) {
				if s >= 0 && s < n {
					out = out.Union(l.in[s])
					pout |= l.pin[s]
				} else {
					out = allRegs()
					pout = AllPreds
				}
			}
			switch in.Op {
			case OpEXIT:
				// Thread terminates: nothing is live after, unless the
				// exit is guarded and non-exiting lanes fall through.
				if in.Guarded() {
					addSucc(pc + 1)
				}
			case OpRET:
				out, pout = allRegs(), AllPreds
			case OpJMP:
				addSucc(int(in.Imm))
				if in.Guarded() {
					addSucc(pc + 1)
				}
			case OpBRA:
				addSucc(pc + 1 + int(in.Imm))
				if in.Guarded() {
					addSucc(pc + 1)
				}
			default:
				addSucc(pc + 1)
			}
			liveIn := l.uses[pc].Union(out)
			pliveIn := l.puses[pc] | pout
			if in.Op == OpCAL {
				// The callee's body is not visible; assume it reads
				// everything.
				liveIn, pliveIn = allRegs(), AllPreds
			} else if !in.Guarded() {
				// A guarded definition may not happen, so only
				// unguarded defs kill liveness.
				liveIn = l.uses[pc].Union(out.Diff(l.defs[pc]))
				pliveIn = l.puses[pc] | (pout &^ l.pdefs[pc])
			}
			if out != l.out[pc] || liveIn != l.in[pc] || pout != l.pout[pc] || pliveIn != l.pin[pc] {
				l.out[pc], l.in[pc] = out, liveIn
				l.pout[pc], l.pin[pc] = pout, pliveIn
				changed = true
			}
		}
	}
}

// Conservative reports whether the analysis fell back to all-live (the
// function contains indirect control flow).
func (l *Liveness) Conservative() bool { return l.conservative }

// LiveIn returns the registers and predicates live immediately before the
// instruction at word index pc.
func (l *Liveness) LiveIn(pc int) (RegSet, PredSet) {
	if l.conservative || pc < 0 || pc >= len(l.in) {
		return allRegs(), AllPreds
	}
	return l.in[pc], l.pin[pc]
}

// LiveOut returns the registers and predicates live immediately after the
// instruction at word index pc.
func (l *Liveness) LiveOut(pc int) (RegSet, PredSet) {
	if l.conservative || pc < 0 || pc >= len(l.out) {
		return allRegs(), AllPreds
	}
	return l.out[pc], l.pout[pc]
}

// SiteLive returns the registers and predicates an instrumentation site at
// word index pc must preserve and expose: everything live into or out of the
// instruction, plus the instruction's own defs and uses (tools may read or
// emulate the instrumented instruction's operands via rdreg/wrreg even when
// the values are otherwise dead).
func (l *Liveness) SiteLive(pc int) (RegSet, PredSet) {
	if l.conservative || pc < 0 || pc >= len(l.in) {
		return allRegs(), AllPreds
	}
	rs := l.in[pc].Union(l.out[pc]).Union(l.defs[pc]).Union(l.uses[pc])
	ps := l.pin[pc] | l.pout[pc] | l.pdefs[pc] | l.puses[pc]
	return rs, ps
}
