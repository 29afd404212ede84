package gpu

import (
	"math/rand"
	"testing"

	"nvbitgo/internal/sass"
)

// The operand table (internal/sass/shape.go) is what liveness, save sets and
// inline renaming trust about each opcode; the interpreter decodes opcodes on
// its own. These tests hold the two to each other black-box: run one
// instruction on a whole warp from a random state, run it again from that
// state with every register and predicate sass.DefUse calls unused set to
// other random values, and require that the defs came out the same both times
// and that everything else passed through.

// defUseArms are the opcodes the check covers: the register-to-register and
// warp-wide arms of step, whose whole effect is on registers and predicates.
var defUseArms = []sass.Opcode{
	sass.OpNOP, sass.OpMOV, sass.OpMOVI, sass.OpMOVIH, sass.OpS2R, sass.OpP2R, sass.OpR2P, sass.OpSEL,
	sass.OpIADD, sass.OpIMUL, sass.OpIMAD, sass.OpISETP, sass.OpSHL, sass.OpSHR, sass.OpLOP, sass.OpPOPC,
	sass.OpFADD, sass.OpFMUL, sass.OpFFMA, sass.OpFSETP, sass.OpMUFU, sass.OpI2F, sass.OpF2I,
	sass.OpSHFL, sass.OpVOTE, sass.OpMATCH,
}

// defUseExcluded names every other opcode and the harness it would need.
var defUseExcluded = map[sass.Opcode]string{
	sass.OpEXIT: "control flow: a branch-target marker", sass.OpBRA: "control flow: a branch-target marker",
	sass.OpJMP: "control flow: a branch-target marker", sass.OpBRX: "control flow: a branch-target marker",
	sass.OpCAL: "control flow: a branch-target marker", sass.OpRET: "control flow: a branch-target marker",
	sass.OpBAR: "barrier: a second warp",
	sass.OpLDG: "memory: a memory dump", sass.OpSTG: "memory: a memory dump",
	sass.OpLDS: "memory: a memory dump", sass.OpSTS: "memory: a memory dump",
	sass.OpLDL: "memory: a memory dump", sass.OpSTL: "memory: a memory dump",
	sass.OpLDC: "memory: a memory dump", sass.OpATOM: "memory: a memory dump", sass.OpRED: "memory: a memory dump",
	sass.OpWFFT32:   "hypothetical: a device built with EnableWFFT",
	sass.OpSAVEPUSH: "save area: a frame", sass.OpSAVEPOP: "save area: a frame",
	sass.OpSTSA: "save area: a frame", sass.OpLDSA: "save area: a frame",
	sass.OpSTSP: "save area: a frame", sass.OpLDSP: "save area: a frame",
	sass.OpSTSB: "save area: a frame", sass.OpLDSB: "save area: a frame",
	sass.OpRDREG: "save area: a frame", sass.OpWRREG: "save area: a frame",
	sass.OpRDPRED: "save area: a frame", sass.OpWRPRED: "save area: a frame",
}

// probeRegs is how many registers a probe seeds and compares; instructions
// name registers below it, pairs included, or RZ.
const probeRegs = 64

// regFile is the part of a warp's state a probe compares.
type regFile struct {
	r [probeRegs][WarpSize]uint32
	p [WarpSize]uint8
}

// opProbe runs single instructions on one warp of a device.
type opProbe struct {
	d    *Device
	h    *stepHarness
	word []byte
}

func newOpProbe(t testing.TB, f sass.Family) *opProbe {
	d := newTestDevice(t, f)
	return &opProbe{d: d, h: newStepHarness(t, d, "NOP"), word: make([]byte, d.Codec().InstBytes())}
}

// run executes the probe's instruction on 32 lanes from state s.
func (p *opProbe) run(t testing.TB, s *regFile) (out regFile) {
	w := p.h.w
	w.reset(0, WarpSize, p.h.entry)
	w.cycles = 0 // SR_CLOCK reads the same in both runs
	copy(w.regs[:probeRegs], s.r[:])
	w.preds = s.p
	p.h.step(t)
	copy(out.r[:], w.regs[:probeRegs])
	out.p = w.preds
	return out
}

// check runs in twice, from a random state and from that state with what
// DefUse calls unused replaced, and fails where the runs disagree on a def or
// a non-def does not pass through.
func (p *opProbe) check(t testing.TB, in sass.Inst, r *rand.Rand) {
	t.Helper()
	if err := p.d.Codec().Encode(in, p.word); err != nil {
		t.Fatalf("%s: %v", sass.Format(in), err)
	}
	if err := p.d.WriteCode(CodeAddr(p.h.entry), p.word); err != nil {
		t.Fatal(err)
	}
	defs, uses, pdefs, puses := sass.DefUse(in)
	if in.Guarded() {
		// A lane that fails the guard keeps what the defs held.
		uses, puses = uses.Union(defs), puses|pdefs
	}
	var a regFile
	for k := range a.r {
		for i := range a.r[k] {
			a.r[k][i] = r.Uint32()
		}
	}
	for i := range a.p {
		a.p[i] = uint8(r.Intn(1 << sass.NumPreds))
	}
	b := a
	for k := range b.r {
		if !uses.Has(sass.Reg(k)) {
			for i := range b.r[k] {
				b.r[k][i] = r.Uint32()
			}
		}
	}
	for q := sass.Pred(0); q < sass.NumPreds; q++ {
		if !puses.Has(q) {
			for i := range b.p {
				b.p[i] = b.p[i]&^(1<<q) | uint8(r.Intn(2))<<q
			}
		}
	}
	ra, rb := p.run(t, &a), p.run(t, &b)
	for k := range ra.r {
		for i := range ra.r[k] {
			if reg := sass.Reg(k); defs.Has(reg) {
				if ra.r[k][i] != rb.r[k][i] {
					t.Fatalf("%s (%v): lane %d of def %v reads %#x and %#x: it reads a register or predicate DefUse calls unused",
						sass.Format(in), p.d.Codec().Family(), i, reg, ra.r[k][i], rb.r[k][i])
				}
			} else if ra.r[k][i] != a.r[k][i] || rb.r[k][i] != b.r[k][i] {
				t.Fatalf("%s (%v): lane %d of %v changed, which DefUse does not call a def", sass.Format(in), p.d.Codec().Family(), i, reg)
			}
		}
	}
	for q := sass.Pred(0); q < sass.NumPreds; q++ {
		for i := range ra.p {
			ga, gb := ra.p[i]>>q&1, rb.p[i]>>q&1
			if pdefs.Has(q) {
				if ga != gb {
					t.Fatalf("%s (%v): lane %d of def %v reads %d and %d: it reads a register or predicate DefUse calls unused",
						sass.Format(in), p.d.Codec().Family(), i, q, ga, gb)
				}
			} else if ga != a.p[i]>>q&1 || gb != b.p[i]>>q&1 {
				t.Fatalf("%s (%v): lane %d of %v changed, which DefUse does not call a def", sass.Format(in), p.d.Codec().Family(), i, q)
			}
		}
	}
}

// rowMods returns every Mods value op's row names.
func rowMods(op sass.Opcode) []sass.Mods {
	var out []sass.Mods
	in := sass.NewInst(op)
	for m := 0; m < 256; m++ {
		if in.Mods = sass.Mods(m); in.Check() == nil {
			out = append(out, in.Mods)
		}
	}
	return out
}

// probeInst builds op with the given modifiers, registers (a byte each: below
// probeRegs-1 names a register, anything else RZ), immediate (made to fit the
// family and the opcode) and guard (bits 0..2 the predicate, bit 3 negation).
func probeInst(f sass.Family, op sass.Opcode, m sass.Mods, regs [4]uint8, imm int64, guard uint8) sass.Inst {
	in := sass.NewInst(op)
	rs := [4]*sass.Reg{&in.Dst, &in.Src1, &in.Src2, &in.Src3}
	for k, b := range regs {
		*rs[k] = sass.RZ
		if b < probeRegs-1 {
			*rs[k] = sass.Reg(b)
		}
	}
	if !in.HasSrc3() {
		in.Src3 = sass.RZ
	}
	switch {
	case in.HasSrc3():
		imm = 0
	case op == sass.OpS2R:
		imm = int64(uint64(imm) % sass.NumSpecialRegs)
	case !sass.ImmFits(f, op, imm):
		imm &= sass.MovihMax
	}
	in.Imm, in.Mods = imm, m
	in.Pred, in.PredNeg = sass.Pred(guard&7), guard&8 != 0
	return in
}

// TestExecMatchesOperandTable checks every covered opcode, under both
// encodings, with every Mods value its row names, unguarded and under a
// guard and a negated one, four draws of registers and immediates each.
func TestExecMatchesOperandTable(t *testing.T) {
	covered := make(map[sass.Opcode]bool)
	for _, op := range defUseArms {
		covered[op] = true
		if why, ok := defUseExcluded[op]; ok {
			t.Errorf("%v is both covered and excluded (%s)", op, why)
		}
	}
	for op := sass.Opcode(0); op.Valid(); op++ {
		if _, ok := defUseExcluded[op]; !ok && !covered[op] {
			t.Errorf("%v is neither checked against its row nor named as an exclusion", op)
		}
	}
	r := rand.New(rand.NewSource(1))
	n := 0
	for _, f := range []sass.Family{sass.Kepler, sass.Volta} {
		p := newOpProbe(t, f)
		for _, op := range defUseArms {
			for _, m := range rowMods(op) {
				for _, guard := range []uint8{uint8(sass.PT), 2, 8 | 5} {
					for k := 0; k < 4; k++ {
						// R8..R23 and RZ, so that operands alias.
						var regs [4]uint8
						for j := range regs {
							if regs[j] = uint8(8 + r.Intn(17)); regs[j] == 24 {
								regs[j] = 255
							}
						}
						p.check(t, probeInst(f, op, m, regs, r.Int63()-r.Int63(), guard), r)
						n++
					}
				}
			}
		}
	}
	t.Logf("%d instructions checked", n)
}

// FuzzOpcodeDefUse is the same check over random operands and immediates.
func FuzzOpcodeDefUse(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint8(8), uint8(9), uint8(10), uint8(11), int64(0x123), uint8(sass.PT), int64(1))
	f.Add(uint8(1), uint8(11), uint8(0x32), uint8(8), uint8(8), uint8(63), uint8(2), int64(-5), uint8(8|3), int64(2))
	f.Add(uint8(0), uint8(24), uint8(0x29), uint8(62), uint8(10), uint8(12), uint8(63), int64(1), uint8(1), int64(3))
	probes := [2]*opProbe{newOpProbe(f, sass.Kepler), newOpProbe(f, sass.Volta)}
	f.Fuzz(func(t *testing.T, fam, opIdx, mods, dst, src1, src2, src3 uint8, imm int64, guard uint8, seed int64) {
		op := defUseArms[int(opIdx)%len(defUseArms)]
		legal := rowMods(op)
		p := probes[fam&1]
		in := probeInst(p.d.Codec().Family(), op, legal[int(mods)%len(legal)], [4]uint8{dst % probeRegs, src1 % probeRegs, src2 % probeRegs, src3 % probeRegs}, imm, guard)
		p.check(t, in, rand.New(rand.NewSource(seed)))
	})
}
