package sass

import (
	"strings"
	"testing"
)

func TestFamilyProperties(t *testing.T) {
	if Kepler.InstBytes() != 8 || Maxwell.InstBytes() != 8 || Pascal.InstBytes() != 8 {
		t.Fatal("pre-Volta families must use 64-bit encodings")
	}
	if Volta.InstBytes() != 16 {
		t.Fatal("Volta must use 128-bit encodings")
	}
	for f := Kepler; f <= Volta; f++ {
		if s := f.String(); s == "" || strings.HasPrefix(s, "Family(") {
			t.Fatalf("family %d has no name", f)
		}
	}
	if !strings.HasPrefix(Family(9).String(), "Family(") {
		t.Fatal("out-of-range family should stringify defensively")
	}
}

func TestParseFamilyRoundTrip(t *testing.T) {
	for f := Kepler; f <= Volta; f++ {
		for _, name := range []string{f.String(), strings.ToLower(f.String())} {
			if got, err := ParseFamily(name); err != nil || got != f {
				t.Errorf("ParseFamily(%q) = %v, %v; want %v", name, got, err, f)
			}
		}
	}
	_, err := ParseFamily("ampere")
	if err == nil || !strings.Contains(err.Error(), "kepler, maxwell, pascal, volta") {
		t.Fatalf("unknown family: error %v, want one listing the accepted names", err)
	}
}

func TestRegisterAndPredicateNames(t *testing.T) {
	if RZ.String() != "RZ" || Reg(7).String() != "R7" {
		t.Fatal("register names")
	}
	if PT.String() != "PT" || Pred(2).String() != "P2" {
		t.Fatal("predicate names")
	}
}

func TestOpcodeClassifiers(t *testing.T) {
	if !OpBRA.IsControlFlow() || !OpEXIT.IsControlFlow() || OpIADD.IsControlFlow() {
		t.Fatal("control-flow classification")
	}
	if !OpBRA.IsRelativeBranch() || OpJMP.IsRelativeBranch() {
		t.Fatal("relative-branch classification")
	}
	loads := []Opcode{OpLDG, OpLDS, OpLDL, OpLDC, OpATOM}
	for _, op := range loads {
		if !op.IsLoad() {
			t.Fatalf("%v should be a memory load", op)
		}
	}
	stores := []Opcode{OpSTG, OpSTS, OpSTL, OpATOM, OpRED}
	for _, op := range stores {
		if !op.IsStore() {
			t.Fatalf("%v should be a memory store", op)
		}
	}
	if OpMOV.IsStore() || OpMOV.IsLoad() {
		t.Fatal("MOV misclassified")
	}
	spaces := map[Opcode]MemSpace{
		OpLDG: MemGlobal, OpSTG: MemGlobal, OpATOM: MemGlobal, OpRED: MemGlobal,
		OpLDS: MemShared, OpSTS: MemShared,
		OpLDL: MemLocal, OpSTL: MemLocal,
		OpLDC: MemConst, OpMOV: MemNone,
	}
	for op, want := range spaces {
		if got := op.MemOpSpace(); got != want {
			t.Fatalf("%v space = %v, want %v", op, got, want)
		}
	}
}

func TestOpcodeNamesUniqueAndParseable(t *testing.T) {
	seen := make(map[string]Opcode)
	for op := 0; op < NumOpcodes; op++ {
		name := Opcode(op).String()
		if name == "" || strings.HasPrefix(name, "OP") {
			t.Fatalf("opcode %d unnamed", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("opcode name %q shared by %d and %d", name, prev, op)
		}
		seen[name] = Opcode(op)
		back, ok := opByName(name)
		if !ok || back != Opcode(op) {
			t.Fatalf("opcode %q not parseable back", name)
		}
	}
	if Opcode(200).Valid() {
		t.Fatal("out-of-range opcode claimed valid")
	}
}

func TestModsRoundTrip(t *testing.T) {
	for sub := 0; sub < 8; sub++ {
		for _, wide := range []bool{false, true} {
			for _, flag := range []bool{false, true} {
				for aux := Pred(0); aux <= PT; aux++ {
					m := MakeMods(sub, wide, flag, aux)
					if m.SubOp() != sub || m.Wide() != wide || m.Flag() != flag || m.Aux() != aux {
						t.Fatalf("mods roundtrip failed for %d/%v/%v/%v", sub, wide, flag, aux)
					}
				}
			}
		}
	}
}

func TestSpecialRegNames(t *testing.T) {
	if SpecialRegName(SRTIDX) != "SR_TID.X" || SpecialRegName(SRLaneID) != "SR_LANEID" {
		t.Fatal("special register names")
	}
	if !strings.HasPrefix(SpecialRegName(99), "SR_99") {
		t.Fatal("unknown special register should stringify defensively")
	}
}

func TestOperandsDstFirstInvariant(t *testing.T) {
	// For every opcode that has operands, destinations precede sources.
	for op := 0; op < NumOpcodes; op++ {
		in := NewInst(Opcode(op))
		in.Dst, in.Src1, in.Src2 = 1, 2, 3
		if in.HasSrc3() {
			in.Src3 = 4
		}
		opds := in.Operands()
		seenSrc := false
		for _, o := range opds {
			if o.Kind == OpdMRef {
				continue // stores write through memory refs mid-list
			}
			if !o.Dst {
				seenSrc = true
			} else if seenSrc && o.Kind == OpdReg && Opcode(op) != OpWFFT32 {
				t.Fatalf("%v: register destination after source", Opcode(op))
			}
		}
	}
}
