package sass

import "testing"

func mkMOVI(dst Reg, v int64) Inst {
	in := NewInst(OpMOVI)
	in.Dst, in.Imm = dst, v
	return in
}

func mkIADD(dst, a, b Reg) Inst {
	in := NewInst(OpIADD)
	in.Dst, in.Src1, in.Src2 = dst, a, b
	return in
}

func mkSTG(base, val Reg) Inst {
	in := NewInst(OpSTG)
	in.Src1, in.Src2 = base, val
	return in
}

func regs(rs ...Reg) RegSet {
	var s RegSet
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

func TestRegSetOps(t *testing.T) {
	var s RegSet
	if !s.Empty() || s.Max() != -1 || s.Count() != 0 {
		t.Fatalf("empty set misbehaves: %v %d %d", s.Empty(), s.Max(), s.Count())
	}
	s.Add(RZ)
	if !s.Empty() {
		t.Fatal("RZ must never enter a RegSet")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(254)
	if s.Count() != 4 || s.Max() != 254 || !s.Has(63) || !s.Has(64) || s.Has(1) {
		t.Fatalf("set ops wrong: count=%d max=%d", s.Count(), s.Max())
	}
	s.AddRange(253, 2) // 253, 254 — must not wrap into RZ
	if s.Has(RZ) || !s.Has(253) {
		t.Fatal("AddRange leaked past the register file")
	}
	if got := RegRange(3); got != regs(0, 1, 2) {
		t.Fatalf("RegRange(3) = %v", got.Regs())
	}
	if allRegs().Count() != NumRegs || allRegs().Max() != NumRegs-1 {
		t.Fatalf("allRegs = %d regs, max %d", allRegs().Count(), allRegs().Max())
	}
	if got := regs(1, 2).Union(regs(2, 3)); got != regs(1, 2, 3) {
		t.Fatalf("union = %v", got.Regs())
	}
	if got := regs(1, 2, 3).Diff(regs(2)); got != regs(1, 3) {
		t.Fatalf("diff = %v", got.Regs())
	}
	if got := regs(1, 2, 3).Intersect(regs(2, 9)); got != regs(2) {
		t.Fatalf("intersect = %v", got.Regs())
	}
	if got := regs(5, 7).Regs(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Regs() = %v", got)
	}
}

func TestPredSetOps(t *testing.T) {
	var s PredSet
	s.Add(PT)
	if s != 0 {
		t.Fatal("PT must never enter a PredSet")
	}
	s.Add(0)
	s.Add(6)
	if s.Count() != 2 || !s.Has(0) || !s.Has(6) || s.Has(3) {
		t.Fatalf("pred set ops wrong: %b", s)
	}
	if AllPreds.Count() != NumPreds {
		t.Fatalf("AllPreds = %d", AllPreds.Count())
	}
}

func TestDefUseSpecialCases(t *testing.T) {
	// Guard predicate is a use.
	in := mkMOVI(3, 1)
	in.Pred = 2
	_, _, _, puses := DefUse(in)
	if !puses.Has(2) {
		t.Fatal("guard predicate not a use")
	}

	// Global memory base is a 64-bit register pair.
	ldg := NewInst(OpLDG)
	ldg.Dst, ldg.Src1 = 4, 8
	defs, uses, _, _ := DefUse(ldg)
	if !uses.Has(8) || !uses.Has(9) || !defs.Has(4) {
		t.Fatalf("LDG def/use wrong: defs=%v uses=%v", defs.Regs(), uses.Regs())
	}

	// Shared memory base is a single register.
	lds := NewInst(OpLDS)
	lds.Dst, lds.Src1 = 4, 8
	_, uses, _, _ = DefUse(lds)
	if !uses.Has(8) || uses.Has(9) {
		t.Fatalf("LDS base width wrong: %v", uses.Regs())
	}

	// WFFT32 transforms (re, im) in place: both def and use.
	w := NewInst(OpWFFT32)
	w.Dst, w.Src1 = 10, 11
	defs, uses, _, _ = DefUse(w)
	if !defs.Has(10) || !defs.Has(11) || !uses.Has(10) || !uses.Has(11) {
		t.Fatalf("WFFT32 def/use wrong: defs=%v uses=%v", defs.Regs(), uses.Regs())
	}

	// Wide ops cover the register pair.
	add := mkIADD(6, 2, RZ)
	add.Mods = MakeMods(0, true, false, PT)
	defs, uses, _, _ = DefUse(add)
	if !defs.Has(6) || !defs.Has(7) || !uses.Has(2) || !uses.Has(3) {
		t.Fatalf("wide IADD def/use wrong: defs=%v uses=%v", defs.Regs(), uses.Regs())
	}

	// ISETP defines its aux predicate and reads its register sources.
	is := NewInst(OpISETP)
	is.Src1, is.Src2 = 1, 2
	is.Mods = MakeMods(CmpLT, false, false, 3)
	_, uses, pdefs, _ := DefUse(is)
	if !pdefs.Has(3) || !uses.Has(1) || !uses.Has(2) {
		t.Fatalf("ISETP def/use wrong: pdefs=%b uses=%v", pdefs, uses.Regs())
	}

	// R2P rewrites the whole predicate bank from a register.
	r2p := NewInst(OpR2P)
	r2p.Src1 = 5
	_, uses, pdefs, _ = DefUse(r2p)
	if pdefs != AllPreds || !uses.Has(5) {
		t.Fatalf("R2P def/use wrong: pdefs=%b uses=%v", pdefs, uses.Regs())
	}

	// P2R (pack) reads the whole bank into a register.
	p2r := NewInst(OpP2R)
	p2r.Dst = 5
	defs, _, _, puses = DefUse(p2r)
	if puses != AllPreds || !defs.Has(5) {
		t.Fatalf("P2R def/use wrong: puses=%b defs=%v", puses, defs.Regs())
	}
}

func TestLivenessStraightLine(t *testing.T) {
	// R0 = imm; R1 = R0+R0; [R2] = R1; EXIT
	prog := []Inst{
		mkMOVI(0, 7),
		mkIADD(1, 0, 0),
		mkSTG(2, 1),
		NewInst(OpEXIT),
	}
	l := AnalyzeLiveness(prog)
	if l.Conservative() {
		t.Fatal("straight-line function should not be conservative")
	}
	// Before the MOVI: R2 live (used by STG, global base pair R2,R3); R0
	// dead (defined here), R1 dead.
	in0, _ := l.LiveIn(0)
	if in0 != regs(2, 3) {
		t.Fatalf("liveIn(0) = %v", in0.Regs())
	}
	out1, _ := l.LiveOut(1)
	if !out1.Has(1) || out1.Has(0) {
		t.Fatalf("liveOut(1) = %v: R1 must be live, R0 dead after last use", out1.Regs())
	}
	// Nothing is live after the EXIT.
	out3, pout3 := l.LiveOut(3)
	if !out3.Empty() || pout3 != 0 {
		t.Fatalf("liveOut(EXIT) = %v", out3.Regs())
	}
	// The site set at the MOVI includes its own def.
	site0, _ := l.SiteLive(0)
	if !site0.Has(0) || !site0.Has(2) || site0.Has(1) {
		t.Fatalf("SiteLive(0) = %v", site0.Regs())
	}
}

// TestLivenessMOVIHReadsItsDestination: MOVIH completes the constant MOVI
// began in its destination, keeping the low 20 bits, so that register is live
// into the MOVIH and the MOVI is what kills it.
func TestLivenessMOVIHReadsItsDestination(t *testing.T) {
	hi := NewInst(OpMOVIH)
	hi.Dst, hi.Imm = 1, 0x123
	prog := []Inst{mkMOVI(1, 0x45678), hi, mkSTG(2, 1), NewInst(OpEXIT)}
	l := AnalyzeLiveness(prog)
	if in1, _ := l.LiveIn(1); !in1.Has(1) {
		t.Fatalf("liveIn(MOVIH) = %v, want R1 among them", in1.Regs())
	}
	if in0, _ := l.LiveIn(0); in0 != regs(2, 3) {
		t.Fatalf("liveIn(MOVI) = %v, want R2 and R3", in0.Regs())
	}
}

func TestLivenessLoop(t *testing.T) {
	// 0: MOVI R0, 10
	// 1: IADD R1, R1, R1   (loop body; R1 loop-carried)
	// 2: IADD R0, R0, RZ (imm -1 decrement stand-in)
	// 3: ISETP P0 = R0 < R2
	// 4: @P0 BRA -4 (back to 1)
	// 5: STG [R4], R1
	// 6: EXIT
	isetp := NewInst(OpISETP)
	isetp.Src1, isetp.Src2 = 0, 2
	isetp.Mods = MakeMods(CmpLT, false, false, 0)
	bra := NewInst(OpBRA)
	bra.Imm = -4
	bra.Pred = 0
	prog := []Inst{
		mkMOVI(0, 10),
		mkIADD(1, 1, 1),
		mkIADD(0, 0, RZ),
		isetp,
		bra,
		mkSTG(4, 1),
		NewInst(OpEXIT),
	}
	l := AnalyzeLiveness(prog)
	// R1 is loop-carried: live around the back edge, including at the
	// loop header's entry.
	in1, _ := l.LiveIn(1)
	if !in1.Has(1) || !in1.Has(0) || !in1.Has(2) || !in1.Has(4) {
		t.Fatalf("liveIn(loop body) = %v", in1.Regs())
	}
	// P0 is live out of the ISETP (consumed by the BRA) and dead after it.
	_, pout3 := l.LiveOut(3)
	if !pout3.Has(0) {
		t.Fatal("P0 not live out of ISETP")
	}
	_, pout4 := l.LiveOut(4)
	if pout4.Has(0) {
		t.Fatalf("P0 should be dead after the backward branch: %b", pout4)
	}
}

func TestLivenessGuardedDefDoesNotKill(t *testing.T) {
	// @P1 MOVI R0 may not execute, so R0 stays live above it.
	gmov := mkMOVI(0, 1)
	gmov.Pred = 1
	prog := []Inst{
		gmov,
		mkSTG(2, 0),
		NewInst(OpEXIT),
	}
	l := AnalyzeLiveness(prog)
	in0, _ := l.LiveIn(0)
	if !in0.Has(0) {
		t.Fatalf("guarded def killed R0: liveIn(0) = %v", in0.Regs())
	}
	// The unguarded variant does kill.
	prog[0] = mkMOVI(0, 1)
	l = AnalyzeLiveness(prog)
	in0, _ = l.LiveIn(0)
	if in0.Has(0) {
		t.Fatalf("unguarded def failed to kill R0: liveIn(0) = %v", in0.Regs())
	}
}

func TestLivenessCallAndReturnConservative(t *testing.T) {
	cal := NewInst(OpCAL)
	cal.Imm = 1000 // out-of-body callee
	prog := []Inst{
		mkMOVI(0, 1),
		cal,
		NewInst(OpEXIT),
	}
	l := AnalyzeLiveness(prog)
	in1, pin1 := l.LiveIn(1)
	if in1 != allRegs() || pin1 != AllPreds {
		t.Fatal("everything must be live before a CAL (callee body unknown)")
	}
	// RET escapes the function: everything live across it.
	prog = []Inst{mkMOVI(0, 1), NewInst(OpRET)}
	l = AnalyzeLiveness(prog)
	out1, _ := l.LiveOut(1)
	if out1 != allRegs() {
		t.Fatal("everything must be live out of a RET")
	}
}

func TestLivenessICFFallsBack(t *testing.T) {
	brx := NewInst(OpBRX)
	brx.Src1 = 0
	prog := []Inst{mkMOVI(0, 1), brx, NewInst(OpEXIT)}
	l := AnalyzeLiveness(prog)
	if !l.Conservative() {
		t.Fatal("BRX function must fall back to the conservative analysis")
	}
	rs, ps := l.SiteLive(0)
	if rs != allRegs() || ps != AllPreds {
		t.Fatal("conservative analysis must report everything live")
	}
	rs, _ = l.LiveIn(0)
	if rs != allRegs() {
		t.Fatal("conservative liveIn must report everything live")
	}
	rs, _ = l.LiveOut(0)
	if rs != allRegs() {
		t.Fatal("conservative liveOut must report everything live")
	}
}

func TestLivenessBranchOutOfBodyEscapes(t *testing.T) {
	bra := NewInst(OpBRA)
	bra.Imm = 100 // leaves the function body
	prog := []Inst{mkMOVI(0, 1), bra}
	l := AnalyzeLiveness(prog)
	out1, _ := l.LiveOut(1)
	if out1 != allRegs() {
		t.Fatal("a branch leaving the body must make everything live")
	}
}
