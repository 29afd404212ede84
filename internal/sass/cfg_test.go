package sass

import "testing"

func mustProgram(t *testing.T, src string) []Inst {
	t.Helper()
	insts, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func TestBasicBlocksStraightLine(t *testing.T) {
	insts := mustProgram(t, `
		MOVI R0, 1
		IADD R0, R0, RZ, 1
		EXIT
	`)
	blocks, ok := BasicBlocks(insts)
	if !ok {
		t.Fatal("unexpected ICF")
	}
	if len(blocks) != 1 || blocks[0] != (BlockRange{0, 3}) {
		t.Fatalf("blocks = %v", blocks)
	}
}

func TestBasicBlocksBranching(t *testing.T) {
	insts := mustProgram(t, `
		ISETP.LT P0, R0, RZ, 10    // 0
		@P0 BRA then               // 1
		MOVI R1, 0                 // 2
		BRA join                   // 3
	then:
		MOVI R1, 1                 // 4
	join:
		EXIT                       // 5
	`)
	blocks, ok := BasicBlocks(insts)
	if !ok {
		t.Fatal("unexpected ICF")
	}
	want := []BlockRange{{0, 2}, {2, 4}, {4, 5}, {5, 6}}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("block %d = %v, want %v", i, blocks[i], want[i])
		}
	}
}

func TestBasicBlocksPredicatedNonBranchDoesNotSplit(t *testing.T) {
	// Predicated ordinary instructions stay inside a block (paper: "an
	// uninterrupted sequence of instructions, including predicated
	// instructions").
	insts := mustProgram(t, `
		ISETP.EQ P1, R0, RZ, 0
		@P1 MOVI R2, 7
		@!P1 MOVI R2, 9
		EXIT
	`)
	blocks, ok := BasicBlocks(insts)
	if !ok || len(blocks) != 1 {
		t.Fatalf("blocks = %v ok=%v", blocks, ok)
	}
}

func TestBasicBlocksICFFallsBack(t *testing.T) {
	insts := mustProgram(t, `
		BRX R4, 0
		EXIT
	`)
	if !HasICF(insts) {
		t.Fatal("BRX not detected as ICF")
	}
	if _, ok := BasicBlocks(insts); ok {
		t.Fatal("basic blocks produced despite ICF")
	}
}

func TestBranchTarget(t *testing.T) {
	bra := NewInst(OpBRA)
	bra.Imm = -3
	if tgt, ok := branchTarget(bra, 10); !ok || tgt != 8 {
		t.Fatalf("BRA target = %d ok=%v", tgt, ok)
	}
	jmp := NewInst(OpJMP)
	jmp.Imm = 99
	if tgt, ok := branchTarget(jmp, 10); !ok || tgt != 99 {
		t.Fatalf("JMP target = %d ok=%v", tgt, ok)
	}
	if _, ok := branchTarget(NewInst(OpBRX), 0); ok {
		t.Fatal("BRX should have no static target")
	}
	if _, ok := branchTarget(NewInst(OpIADD), 0); ok {
		t.Fatal("IADD should have no target")
	}
}

func TestCallEndsBlock(t *testing.T) {
	insts := mustProgram(t, `
		MOVI R0, 1
		CAL 0
		MOVI R1, 2
		EXIT
	`)
	blocks, ok := BasicBlocks(insts)
	if !ok {
		t.Fatal(ok)
	}
	// CAL targets word 0, making it a leader: [0,2) would be split at 0
	// anyway; block boundaries: {0,2},{2,4}? CAL at 1 ends block; target 0
	// is already a leader.
	want := []BlockRange{{0, 2}, {2, 4}}
	if len(blocks) != 2 || blocks[0] != want[0] || blocks[1] != want[1] {
		t.Fatalf("blocks = %v", blocks)
	}
}
