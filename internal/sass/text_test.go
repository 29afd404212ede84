package sass

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestFormatParseFixedPoint checks the core text property: formatting, then
// parsing, then formatting again reproduces the same text for every opcode.
func TestFormatParseFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	seen := make(map[Opcode]bool)
	for i := 0; i < 10000; i++ {
		in := randomInst(r, Volta)
		text := Format(in)
		got, err := ParseInst(text)
		if err != nil {
			t.Fatalf("parse %q (from %#v): %v", text, in, err)
		}
		if again := Format(got); again != text {
			t.Fatalf("not a fixed point:\nfirst:  %q\nsecond: %q", text, again)
		}
		seen[in.Op] = true
	}
	if len(seen) < NumOpcodes-2 {
		t.Fatalf("generator covered only %d/%d opcodes", len(seen), NumOpcodes)
	}
}

// TestParsePreservesSemantics spot-checks that parsing recovers the exact
// instruction fields, not merely stable text.
func TestParsePreservesSemantics(t *testing.T) {
	cases := []struct {
		text string
		want Inst
	}{
		{"IADD R4, R5, R6, 12 ;", func() Inst {
			i := NewInst(OpIADD)
			i.Dst, i.Src1, i.Src2, i.Imm = 4, 5, 6, 12
			i.Mods = MakeMods(0, false, false, PT)
			return i
		}()},
		{"@!P2 STG.W [R10+0x20], R4 ;", func() Inst {
			i := NewInst(OpSTG)
			i.Pred, i.PredNeg = 2, true
			i.Src1, i.Src2, i.Imm = 10, 4, 0x20
			i.Mods = MakeMods(0, true, false, PT)
			return i
		}()},
		{"VOTE.ANY P3, P1 ;", func() Inst {
			i := NewInst(OpVOTE)
			i.Dst = Reg(3)
			i.Mods = MakeMods(VoteAny, false, false, 1)
			return i
		}()},
		{"LDC R7, c[1][R2+8] ;", func() Inst {
			i := NewInst(OpLDC)
			i.Dst, i.Src1, i.Imm = 7, 2, 8
			i.Mods = MakeMods(1, false, false, PT)
			return i
		}()},
		{"ATOM.ADD.F R2, [R8], R3 ;", func() Inst {
			i := NewInst(OpATOM)
			i.Dst, i.Src1, i.Src2 = 2, 8, 3
			i.Mods = MakeMods(AtomAdd, false, true, PT)
			return i
		}()},
		{"RDREG R4, R5+2 ;", func() Inst {
			i := NewInst(OpRDREG)
			i.Dst, i.Src1, i.Imm = 4, 5, 2
			return i
		}()},
		{"STL [R4-0x8000000000000000], R5 ;", func() Inst {
			i := NewInst(OpSTL)
			i.Src1, i.Src2, i.Imm = 4, 5, math.MinInt64
			return i
		}()},
		{"SAVEPUSH 24 ;", func() Inst {
			i := NewInst(OpSAVEPUSH)
			i.Imm = 24
			return i
		}()},
		{"STSA [3], R5 ;", func() Inst {
			i := NewInst(OpSTSA)
			i.Src1, i.Imm = 5, 3
			return i
		}()},
	}
	for _, c := range cases {
		got, err := ParseInst(c.text)
		if err != nil {
			t.Errorf("ParseInst(%q): %v", c.text, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseInst(%q)\n got %#v\nwant %#v", c.text, got, c.want)
		}
	}
}

func TestFormatExamples(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{func() Inst {
			i := NewInst(OpIADD)
			i.Dst, i.Src1, i.Src2, i.Imm = 4, 5, 6, 12
			return i
		}(), "IADD R4, R5, R6, 0xc ;"},
		{func() Inst {
			i := NewInst(OpLDG)
			i.Dst, i.Src1, i.Imm = 8, 4, 16
			i.Mods = MakeMods(0, true, false, PT)
			return i
		}(), "LDG.W R8, [R4+0x10] ;"},
		{func() Inst {
			i := NewInst(OpISETP)
			i.Src1, i.Src2, i.Imm = 7, RZ, 100
			i.Mods = MakeMods(CmpLT, false, true, 1)
			return i
		}(), "ISETP.LT.U32 P1, R7, RZ, 0x64 ;"},
		{func() Inst {
			i := NewInst(OpBRA)
			i.Pred, i.PredNeg, i.Imm = 0, true, -3
			return i
		}(), "@!P0 BRA -3 ;"},
		{func() Inst {
			i := NewInst(OpSTL)
			i.Src1, i.Src2, i.Imm = 4, 5, math.MinInt64
			return i
		}(), "STL [R4-0x8000000000000000], R5 ;"},
		{NewInst(OpEXIT), "EXIT ;"},
	}
	for _, c := range cases {
		if got := Format(c.in); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func TestParseProgramLabels(t *testing.T) {
	src := `
		// simple loop
		MOVI R4, 10
	loop:
		IADD R4, R4, RZ, -1
		ISETP.GT P0, R4, RZ, 0
		@P0 BRA loop
		JMP done
		NOP
	done:
		EXIT
	`
	insts, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 7 {
		t.Fatalf("got %d instructions", len(insts))
	}
	if insts[3].Op != OpBRA || insts[3].Imm != -3 {
		t.Fatalf("BRA loop resolved to %+v", insts[3])
	}
	if insts[4].Op != OpJMP || insts[4].Imm != 6 {
		t.Fatalf("JMP done resolved to %+v", insts[4])
	}
}

func TestParseProgramErrors(t *testing.T) {
	if _, err := ParseProgram("BRA nowhere"); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("undefined label not reported: %v", err)
	}
	if _, err := ParseProgram("x:\nx:\nEXIT"); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("duplicate label not reported: %v", err)
	}
	if _, err := ParseProgram("FROB R1, R2"); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	for _, src := range []string{
		"LDC R0, c[0",        // unterminated bank
		"LDC R0, c[9][R0]",   // bank outside 0..7
		"LDC R0, c[-1][R0]",  // negative bank
		"LDC R0, c[1]",       // bank without a reference
		"IADD R1, R2, R3",    // missing operand
		"VOTE.ANY R1, P2",    // register where the mode writes a predicate
		"S2R R1, SR_NOWHERE", // unknown special register
		// Modifiers the rows do not name.
		"IMUL.W R2, R4, R6",
		"SHL.W R2, R4, RZ, 3",
		"SHR.W R2, R4, RZ, 3",
		"LOP.AND.W R2, R4, R6, 0",
		"FFMA.W R2, R4, R6, R8",
		"MOVIH.W R2, 0x12",
		"ISETP.LT.W P0, R2, R4, 0",
		"FADD.U32 R2, R4, R6",
		"ATOM.ADD.U32 R2, [R4], R6",
		"ISETP.LT.F P0, R2, R4, 0",
		"LOP.ADD R2, R4, R6, 0",
		"P2R.ANY R2",
		"LDC.ONE R2, c[1][R4]",
		"ISETP..LT P0, R2, R4, 0",
	} {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestFormatProgram(t *testing.T) {
	insts := []Inst{NewInst(OpNOP), NewInst(OpEXIT)}
	out := FormatProgram(insts)
	if !strings.Contains(out, "/*0000*/") || !strings.Contains(out, "EXIT ;") {
		t.Fatalf("unexpected listing:\n%s", out)
	}
}

// FuzzParseProgram: the assembler takes text from outside the program
// (sassdump, tests, hand-written tool bodies), so no input may panic it, and
// what it accepts it must mean: every instruction of an accepted program,
// printed by Format and assembled again, is the same instruction.
func FuzzParseProgram(f *testing.F) {
	f.Add("// simple loop\n\tMOVI R4, 10\nloop:\n\tIADD R4, R4, RZ, -1\n\tISETP.GT P0, R4, RZ, 0\n\t@P0 BRA loop\n\tJMP done\n\tNOP\ndone: EXIT ;")
	f.Add("a: b: @!P3 CAL b # twice labelled\nLDC.W R10, c[1][8]\nSTG [R16+0x10], R12\nRED.ADD [R10], R8\nS2R R0, SR_TID.X\nBRA nowhere")
	f.Add("x:\nx:\nFROB R1, R2\nLDC R0, c[0\nLDC R0, c[9][R0]\nVOTE.ANY R1, P2\nIADD R1, R2, R3")
	r := rand.New(rand.NewSource(19))
	for k := 0; k < 8; k++ {
		var src string
		for i := 0; i < 24; i++ {
			src += Format(randomInst(r, Volta)) + "\n"
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		insts, err := ParseProgram(src)
		if err != nil {
			return
		}
		var text string
		for _, in := range insts {
			text += Format(in) + "\n"
		}
		back, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("accepted program prints as\n%s\nwhich does not assemble: %v", text, err)
		}
		if len(back) != len(insts) {
			t.Fatalf("%d instructions print as\n%s\nwhich assembles to %d", len(insts), text, len(back))
		}
		for i := range insts {
			if back[i] != insts[i] {
				t.Fatalf("instruction %d: %+v prints as %q, which assembles to %+v", i, insts[i], Format(insts[i]), back[i])
			}
		}
	})
}
