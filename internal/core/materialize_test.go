package core

import (
	"testing"

	"nvbitgo/internal/sass"
)

// materializeCases are the 20-bit boundary values for the MOVI/MOVIH split:
// both edges of the signed-20-bit MOVI range, both edges of the low field,
// carry-prone negatives, and full-width patterns.
var materializeCases = []uint32{
	0,
	1,
	0x7FFFF,    // 1<<19 - 1: largest positive fitting signed 20-bit MOVI
	0x80000,    // 1<<19: first value needing the split (lo wraps negative)
	0xFFFFF,    // all-ones low field
	0x100000,   // 1<<20: lo = 0, hi = 1
	0x100001,   // lo = 1, hi = 1
	0x7FFFFFFF, // max int32
	0x80000000, // min int32
	0xFFF80000, // -1<<19 as int32: smallest negative fitting MOVI
	0xFFF7FFFF, // -1<<19 - 1: first negative needing the split
	0xFFFFFFFF, // -1: fits MOVI via sign extension
	0xDEADBEEF, // arbitrary bit soup
	0xAAAAF000, // lo field 0xAF000 > 1<<19-1: exercises the lo -= 1<<20 carry
}

// runMaterialize encodes the sequence with the family codec, decodes it
// back, and interprets MOVI/MOVIH with the execution-engine semantics
// (exec.go): MOVI sets the register to the sign-extended immediate, MOVIH
// replaces bits 20..31 keeping the low 20 bits.
func runMaterialize(t *testing.T, fam sass.Family, seq []sass.Inst, dst sass.Reg) uint32 {
	t.Helper()
	codec := sass.CodecFor(fam)
	raw, err := codec.EncodeAll(seq)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := codec.DecodeAll(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(seq) {
		t.Fatalf("decode round-trip changed length: %d != %d", len(dec), len(seq))
	}
	r := uint32(0xA5A5A5A5) // poison: MOVIH on a fresh value must not leak it
	for _, in := range dec {
		if in.Dst != dst {
			t.Fatalf("materialize wrote %v, want %v", in.Dst, dst)
		}
		switch in.Op {
		case sass.OpMOVI:
			r = uint32(int32(in.Imm))
		case sass.OpMOVIH:
			r = r&0xFFFFF | uint32(in.Imm)<<20
		default:
			t.Fatalf("materialize emitted unexpected opcode %v", in.Op)
		}
	}
	return r
}

// TestMaterializeBoundaries checks that materialize produces the requested
// 32-bit constant for every boundary value, on both an 8-byte family (where
// out-of-range constants use the MOVI lo / MOVIH hi split) and Volta (single
// wide MOVI).
func TestMaterializeBoundaries(t *testing.T) {
	for _, fam := range []sass.Family{sass.Pascal, sass.Volta} {
		const dst = sass.Reg(9)
		for _, v := range materializeCases {
			seq := sass.AppendLoadImm32(nil, fam, dst, v)
			if fam == sass.Volta && len(seq) != 1 {
				t.Errorf("%v: Volta materialize(%#x) used %d instructions, want 1", fam, v, len(seq))
			}
			if fam != sass.Volta {
				fits := int64(int32(v)) >= -(1<<19) && int64(int32(v)) <= 1<<19-1
				if want := 2 - b2i(fits); len(seq) != want {
					t.Errorf("%v: materialize(%#x) used %d instructions, want %d", fam, v, len(seq), want)
				}
			}
			if got := runMaterialize(t, fam, seq, dst); got != v {
				t.Errorf("%v: materialize(%#x) produced %#x", fam, v, got)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMaterializeSplitImmediatesEncodable asserts every instruction the
// split path emits satisfies the family's own ImmFits rule — the lo part
// must land in signed 20 bits after the carry adjustment, the hi part in
// MOVIH's unsigned 12 bits.
func TestMaterializeSplitImmediatesEncodable(t *testing.T) {
	for _, v := range materializeCases {
		for _, in := range sass.AppendLoadImm32(nil, sass.Pascal, 3, v) {
			if !sass.ImmFits(sass.Pascal, in.Op, in.Imm) {
				t.Errorf("materialize(%#x): %v immediate %#x not encodable on Pascal", v, in.Op, in.Imm)
			}
		}
	}
}
