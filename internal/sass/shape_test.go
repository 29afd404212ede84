package sass

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestEveryOpcodeHasShape(t *testing.T) {
	for op := Opcode(0); op.Valid(); op++ {
		if !opShapes[op].defined {
			t.Errorf("%v has no row in opShapes", op)
		}
	}
}

// everyInst calls f with every opcode × every Mods value its row names
// (sub-op, flag, .W and Aux), under a few register, immediate and guard
// assignments.
func everyInst(f func(Inst)) {
	regs := [][4]Reg{{1, 2, 3, 4}, {RZ, RZ, RZ, RZ}, {10, 20, 30, 40}, {254, 252, 6, 7}}
	imms := []int64{0, 9, 10, -16, 0x1234}
	for op := Opcode(0); op.Valid(); op++ {
		for j, m := range rowMods[op] {
			for k, rs := range regs {
				in := NewInst(op)
				in.Dst, in.Src1, in.Src2, in.Src3 = rs[0], rs[1], rs[2], rs[3]
				in.Imm = imms[(int(op)+j+k)%len(imms)]
				if op == OpS2R {
					in.Imm = int64((j + k) % NumSpecialRegs)
				}
				in.Mods = m
				if k%2 == 1 {
					in.Pred, in.PredNeg = Pred(k), k == 1
				}
				f(in)
			}
		}
	}
}

// TestFormatParseFixedPointExhaustive: Format → ParseInst → Format is a fixed
// point, and parsing recovers the same modifiers and operands, for every
// opcode and every Mods value its row names. AppendFormat writes the same text after whatever the
// destination already holds, from a nil destination too.
func TestFormatParseFixedPointExhaustive(t *testing.T) {
	n := 0
	var buf []byte
	everyInst(func(in Inst) {
		n++
		text := Format(in)
		if got := string(AppendFormat(nil, in)); got != text {
			t.Fatalf("AppendFormat(nil) = %q, Format = %q", got, text)
		}
		buf = AppendFormat(append(buf[:0], "/*0*/ "...), in)
		if got := string(buf); got != "/*0*/ "+text {
			t.Fatalf("AppendFormat after a prefix = %q, want the prefix and %q", got, text)
		}
		got, err := ParseInst(text)
		if err != nil {
			t.Fatalf("parse %q (from %+v): %v", text, in, err)
		}
		if again := Format(got); again != text {
			t.Fatalf("not a fixed point:\nfirst:  %q\nsecond: %q", text, again)
		}
		if !reflect.DeepEqual(got.Operands(), in.Operands()) || got.Mods != in.Mods || got.Pred != in.Pred || got.PredNeg != in.PredNeg {
			t.Fatalf("%q parsed to different operands:\n got %+v\nwant %+v", text, got.Operands(), in.Operands())
		}
	})
	if n < 4*NumOpcodes {
		t.Fatalf("only %d instructions generated", n)
	}
}

// randomRenameMaps builds a random injective register map over the footprint
// that keeps every pair adjacent, and a random predicate permutation.
func randomRenameMaps(r *rand.Rand, fp Footprint) (map[Reg]Reg, map[Pred]Pred) {
	// Registers chained by pair constraints move as one cluster.
	var clusters [][]Reg
	for _, reg := range fp.Regs.Regs() {
		if n := len(clusters); n > 0 && fp.PairBases.Has(reg-1) && clusters[n-1][len(clusters[n-1])-1] == reg-1 {
			clusters[n-1] = append(clusters[n-1], reg)
		} else {
			clusters = append(clusters, []Reg{reg})
		}
	}
	r.Shuffle(len(clusters), func(a, b int) { clusters[a], clusters[b] = clusters[b], clusters[a] })
	regMap := make(map[Reg]Reg)
	next := Reg(64)
	for _, cl := range clusters {
		next += Reg(r.Intn(3))
		for _, reg := range cl {
			regMap[reg] = next
			next++
		}
	}
	predMap := make(map[Pred]Pred)
	for p, q := range r.Perm(NumPreds) {
		predMap[Pred(p)] = Pred(q)
	}
	return regMap, predMap
}

// TestRenameCommutesWithDefUse: for bodies BodyFootprint accepts, renaming
// and then taking def/use sets equals taking them first and mapping the sets
// — the property that fails when renaming and def/use disagree about which
// fields of an opcode are operands.
func TestRenameCommutesWithDefUse(t *testing.T) {
	var pool []Inst
	everyInst(func(in Inst) {
		// Small register numbers leave room for the renamed copies.
		in.Dst, in.Src1, in.Src2, in.Src3 = in.Dst%48, in.Src1%48, in.Src2%48, in.Src3%48
		if _, ok := BodyFootprint([]Inst{in}); ok || in.Op == OpBRA {
			pool = append(pool, in)
		}
	})
	seen := make(map[Opcode]bool)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		body := make([]Inst, 1+r.Intn(10))
		for k := range body {
			body[k] = pool[r.Intn(len(pool))]
			if body[k].Op == OpBRA {
				body[k].Imm = int64(r.Intn(len(body)) - (k + 1))
			}
		}
		fp, ok := BodyFootprint(body)
		if !ok {
			t.Fatalf("body of accepted instructions rejected: %v", body)
		}
		regMap, predMap := randomRenameMaps(r, fp)
		renamed := RenameBody(body, regMap, predMap)
		for k, in := range body {
			seen[in.Op] = true
			defs, uses, pdefs, puses := DefUse(in)
			var wantDefs, wantUses RegSet
			for _, reg := range defs.Regs() {
				wantDefs.Add(regMap[reg])
			}
			for _, reg := range uses.Regs() {
				wantUses.Add(regMap[reg])
			}
			var wantPDefs, wantPUses PredSet
			for p := Pred(0); p < NumPreds; p++ {
				if pdefs.Has(p) {
					wantPDefs.Add(predMap[p])
				}
				if puses.Has(p) {
					wantPUses.Add(predMap[p])
				}
			}
			gotDefs, gotUses, gotPDefs, gotPUses := DefUse(renamed[k])
			if gotDefs != wantDefs || gotUses != wantUses || gotPDefs != wantPDefs || gotPUses != wantPUses {
				t.Fatalf("%s renamed to %s:\n defs %v want %v\n uses %v want %v\n pdefs %07b want %07b\n puses %07b want %07b",
					Format(in), Format(renamed[k]), gotDefs.Regs(), wantDefs.Regs(), gotUses.Regs(), wantUses.Regs(),
					gotPDefs, wantPDefs, gotPUses, wantPUses)
			}
		}
	}
	if len(seen) < 30 {
		t.Fatalf("only %d opcodes exercised", len(seen))
	}
}
