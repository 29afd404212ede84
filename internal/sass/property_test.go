package sass

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBody builds a random but structurally valid instruction stream:
// arithmetic filler with sprinkled relative branches that stay in range.
func randomBody(r *rand.Rand, n int) []Inst {
	insts := make([]Inst, n)
	for i := range insts {
		switch r.Intn(6) {
		case 0:
			in := NewInst(OpBRA)
			// Target anywhere within the body.
			target := r.Intn(n)
			in.Imm = int64(target - (i + 1))
			if r.Intn(2) == 0 {
				in.Pred = Pred(r.Intn(7))
			}
			insts[i] = in
		case 1:
			in := NewInst(OpISETP)
			in.Src1, in.Src2 = Reg(r.Intn(32)), RZ
			in.Imm = int64(r.Intn(100))
			in.Mods = MakeMods(r.Intn(6), false, false, Pred(r.Intn(7)))
			insts[i] = in
		default:
			in := NewInst(OpIADD)
			in.Dst, in.Src1, in.Src2 = Reg(r.Intn(32)), Reg(r.Intn(32)), RZ
			in.Imm = int64(r.Intn(64))
			insts[i] = in
		}
	}
	insts[n-1] = NewInst(OpEXIT)
	return insts
}

// TestBasicBlockPartitionProperties checks the invariants of the block
// construction over random control-flow graphs:
//  1. blocks exactly tile [0, n) in order with no gaps or overlaps,
//  2. control-flow instructions only ever appear as block terminators,
//  3. branch targets only ever land on block leaders.
func TestBasicBlockPartitionProperties(t *testing.T) {
	fn := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw)%60 + 2
		r := rand.New(rand.NewSource(seed))
		insts := randomBody(r, n)
		blocks, ok := BasicBlocks(insts)
		if !ok {
			return false // no ICF in the generator
		}
		pos := 0
		leaders := map[int]bool{}
		for _, b := range blocks {
			if b.Start != pos || b.End <= b.Start {
				return false
			}
			leaders[b.Start] = true
			for k := b.Start; k < b.End-1; k++ {
				if insts[k].Op.IsControlFlow() {
					return false // control flow inside a block
				}
			}
			pos = b.End
		}
		if pos != n {
			return false
		}
		for pc, in := range insts {
			if tgt, isBranch := branchTarget(in, pc); isBranch && tgt >= 0 && tgt < n && !leaders[tgt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestProgramTextRoundTrip: FormatProgram-style listings of random bodies
// re-assemble to the identical instruction stream.
func TestProgramTextRoundTrip(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		insts := randomBody(r, 20)
		var src string
		for _, in := range insts {
			src += Format(in) + "\n"
		}
		back, err := ParseProgram(src)
		if err != nil || len(back) != len(insts) {
			return false
		}
		for i := range insts {
			if back[i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
