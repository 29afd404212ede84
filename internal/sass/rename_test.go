package sass

import (
	"slices"
	"testing"
)

func inst(op Opcode, f func(*Inst)) Inst {
	in := NewInst(op)
	if f != nil {
		f(&in)
	}
	return in
}

func TestBodyFootprintRejects(t *testing.T) {
	cases := map[string][]Inst{
		"save-frame": {inst(OpLDSA, func(i *Inst) { i.Dst = 3 })},
		"device-api": {inst(OpRDPRED, func(i *Inst) { i.Dst = 2 })},
		"call":       {inst(OpCAL, func(i *Inst) { i.Imm = 7 })},
		"jmp":        {inst(OpJMP, nil)},
		"icf":        {inst(OpBRX, nil)},
		"r2p":        {inst(OpR2P, func(i *Inst) { i.Src1 = 1 })},
		"p2r-pack": {inst(OpP2R, func(i *Inst) {
			i.Dst = 1
			i.Mods = MakeMods(P2RPack, false, false, PT)
		})},
		"bra-escape": {inst(OpBRA, func(i *Inst) { i.Imm = 5 }), inst(OpRET, nil)},
		"bra-before": {inst(OpBRA, func(i *Inst) { i.Imm = -3 }), inst(OpRET, nil)},
	}
	for name, body := range cases {
		if _, ok := BodyFootprint(body); ok {
			t.Errorf("%s: body accepted, want rejection", name)
		}
	}
}

func TestBodyFootprintCollects(t *testing.T) {
	body := []Inst{
		inst(OpMOV, func(i *Inst) { i.Dst = 4; i.Src1 = 8; i.Mods = MakeMods(0, true, false, PT) }),
		inst(OpISETP, func(i *Inst) { i.Src1 = 2; i.Src2 = RZ; i.Mods = MakeMods(CmpLT, false, false, 1) }),
		inst(OpLDG, func(i *Inst) { i.Pred = 1; i.Dst = 3; i.Src1 = 4 }),
		inst(OpRET, nil),
	}
	fp, ok := BodyFootprint(body)
	if !ok {
		t.Fatal("body rejected")
	}
	for _, r := range []Reg{2, 3, 4, 5, 8, 9} {
		if !fp.Regs.Has(r) {
			t.Errorf("R%d missing from footprint", r)
		}
	}
	if fp.Regs.Count() != 6 {
		t.Errorf("footprint has %d regs, want 6 (%v)", fp.Regs.Count(), fp.Regs.Regs())
	}
	if !fp.PairBases.Has(4) || !fp.PairBases.Has(8) {
		t.Errorf("pair bases %v, want R4 and R8", fp.PairBases.Regs())
	}
	if !fp.Preds.Has(1) || fp.Preds.Count() != 1 {
		t.Errorf("preds = %b, want exactly P1", fp.Preds)
	}
}

func TestRenameBody(t *testing.T) {
	body := []Inst{
		inst(OpMOV, func(i *Inst) { i.Dst = 0; i.Src1 = 2; i.Mods = MakeMods(0, true, false, PT) }),
		inst(OpISETP, func(i *Inst) { i.Src1 = 0; i.Src2 = RZ; i.Imm = 3; i.Mods = MakeMods(CmpEQ, false, false, 0) }),
		inst(OpSEL, func(i *Inst) { i.Dst = 4; i.Src1 = 0; i.Src2 = 1; i.Mods = MakeMods(0, false, false, 0) }),
		inst(OpVOTE, func(i *Inst) { i.Dst = Reg(2); i.Mods = MakeMods(VoteAny, false, false, 0) }),
		inst(OpP2R, func(i *Inst) { i.Dst = 5; i.Mods = MakeMods(P2RSingle, false, false, 2) }),
		inst(OpSTG, func(i *Inst) { i.Pred = 0; i.Src1 = 2; i.Src2 = 4 }),
		inst(OpRET, nil),
	}
	regMap := map[Reg]Reg{0: 10, 1: 11, 2: 20, 3: 21, 4: 14, 5: 15}
	predMap := map[Pred]Pred{0: 3, 2: 5}
	out := RenameBody(body, regMap, predMap)

	if out[0].Dst != 10 || out[0].Src1 != 20 || !out[0].Mods.Wide() {
		t.Errorf("MOV renamed to %v <- %v", out[0].Dst, out[0].Src1)
	}
	if out[1].Src1 != 10 || out[1].Mods.Aux() != 3 || out[1].Imm != 3 {
		t.Errorf("ISETP renamed to src %v, aux %v", out[1].Src1, out[1].Mods.Aux())
	}
	if out[2].Dst != 14 || out[2].Src1 != 10 || out[2].Src2 != 11 || out[2].Mods.Aux() != 3 {
		t.Errorf("SEL renamed to %+v", out[2])
	}
	if Pred(out[3].Dst&7) != 5 || out[3].Mods.Aux() != 3 {
		t.Errorf("VOTE.ANY renamed to dst pred %v, aux %v", Pred(out[3].Dst&7), out[3].Mods.Aux())
	}
	if out[4].Dst != 15 || out[4].Mods.Aux() != 5 {
		t.Errorf("P2R renamed to %+v", out[4])
	}
	if out[5].Pred != 3 || out[5].Src1 != 20 || out[5].Src2 != 14 {
		t.Errorf("STG renamed to %+v", out[5])
	}
	// Untouched identities: RZ and PT survive, RET unchanged.
	if out[1].Src2 != RZ {
		t.Errorf("RZ remapped to %v", out[1].Src2)
	}
	if out[6] != body[6] {
		t.Errorf("RET changed: %+v", out[6])
	}
	// RenameRegs is the same register rewrite, in place, through a table.
	var to [NumRegs]Reg
	for r := range to {
		to[r] = Reg(r)
	}
	for r, n := range regMap {
		to[r] = n
	}
	inPlace := slices.Clone(body)
	RenameRegs(inPlace, &to)
	if want := RenameBody(body, regMap, nil); !slices.Equal(inPlace, want) {
		t.Errorf("RenameRegs gave\n%s\nwant\n%s", FormatProgram(inPlace), FormatProgram(want))
	}
}
