package gpu

import (
	"math/bits"
	"math/rand"
	"testing"

	"nvbitgo/internal/sass"
)

// The row paths of step (docs/scheduler.md, "Warp state and the step loop")
// are checked against two oracles that know nothing of rows. The mask oracle:
// `@P0 op ; @!P0 op` executes every lane exactly once through the merge path,
// and must leave what the unguarded op leaves on the full warp through the
// direct path. The scalar oracle: refLane is the meaning of one lane of each
// of these opcodes, and no lane outside the executing mask may change.

// rowCases has every opcode with a row path: plain, with the destination
// aliasing each source, with RZ as a source and as the destination, and on
// register pairs, overlapping ones included. P0 is the guard the tests put in
// front; the instructions themselves use P1 and P2.
var rowCases = []string{
	"MOV R8, R2", "MOV R2, R2", "MOV R8, RZ", "MOV RZ, R2",
	"MOV.W R8, R2", "MOV.W R3, R2", "MOV.W R2, R3", "MOV.W R8, RZ", "MOV.W RZ, R2",
	"MOVI R8, 0x1234", "MOVI R8, -3", "MOVI RZ, 7",
	"MOVIH R8, 0xabc", "MOVIH RZ, 0x123",
	"S2R R8, SR_LANEID", "S2R R8, SR_TID.X", "S2R R8, SR_TID.Y", "S2R R8, SR_NTID.X", "S2R R8, SR_CTAID.X", "S2R RZ, SR_TID.X",
	"SEL R8, R2, R4, P1", "SEL R2, R2, R4, P1", "SEL R4, R2, R4, P1", "SEL R8, RZ, R4, P2", "SEL R8, R2, R4, PT",
	"IADD R8, R2, R4, 0x11", "IADD R2, R2, R4, 0", "IADD R4, R2, R4, -5", "IADD R8, RZ, R4, 3", "IADD RZ, R2, R4, 0", "IADD R2, R2, R2, 1",
	"IADD.W R8, R2, R4, 0x11", "IADD.W R2, R2, R4, 1", "IADD.W R4, R2, R4, -1", "IADD.W R3, R2, R4, 1", "IADD.W R5, R2, R4, 0", "IADD.W R8, RZ, R4, 9", "IADD.W RZ, R2, R4, 0",
	"IMUL R8, R2, R4", "IMUL R2, R2, R4", "IMUL R4, R2, R4", "IMUL R8, R2, RZ",
	"IMAD R8, R2, R4, R6", "IMAD R2, R2, R4, R6", "IMAD R4, R2, R4, R6", "IMAD R6, R2, R4, R6", "IMAD R8, R2, R4, RZ", "IMAD RZ, R2, R4, R6",
	"IMAD.W R8, R2, R4, R6", "IMAD.W R2, R2, R4, R6", "IMAD.W R3, R2, R4, R6", "IMAD.W R6, R2, R4, R6", "IMAD.W R5, R2, R4, R6", "IMAD.W R8, R2, R4, RZ", "IMAD.W RZ, R2, R4, R6",
	"ISETP.EQ P1, R2, R4, 0", "ISETP.NE P1, R2, R4, 1", "ISETP.LT P1, R2, R4, 0", "ISETP.LE P2, R2, R4, -1", "ISETP.GT P1, R2, RZ, 5", "ISETP.GE P1, RZ, R4, 0",
	"ISETP.EQ.U32 P1, R2, R4, 0", "ISETP.NE.U32 P2, R2, R4, 0", "ISETP.LT.U32 P1, R2, R4, 7", "ISETP.LE.U32 P1, R2, R4, 0", "ISETP.GT.U32 P1, R2, R4, 0", "ISETP.GE.U32 P1, R2, R4, 3", "ISETP.LT PT, R2, R4, 0",
	"SHL R8, R2, R4, 0", "SHL R2, R2, RZ, 3", "SHL R4, R2, R4, 1", "SHR R8, R2, R4, 0", "SHR R2, R2, RZ, 31", "SHR R4, R2, R4, 2",
	"LOP.AND R8, R2, R4, 0", "LOP.OR R2, R2, R4, 1", "LOP.XOR R4, R2, R4, 0", "LOP.NOT R8, R2, RZ, 0", "LOP.AND R8, R2, RZ, 0xff", "LOP.XOR RZ, R2, R4, 0",
	"POPC R8, R2", "POPC R2, R2", "POPC R8, RZ",
	"I2F R8, R2", "I2F R2, R2",
	"FADD R8, R2, R4", "FADD R2, R2, R4", "FADD R4, R2, R4", "FADD R8, R2, RZ",
	"FMUL R8, R2, R4", "FMUL R2, R2, R4", "FMUL R4, R2, R4", "FMUL RZ, R2, R4",
	"FFMA R8, R2, R4, R6", "FFMA R2, R2, R4, R6", "FFMA R4, R2, R4, R6", "FFMA R6, R2, R4, R6", "FFMA R8, R2, R4, RZ",
}

// rowRegs is how many registers the tests randomize and compare; rowCases
// stay below it, pairs included.
const rowRegs = 12

// laneState is one lane's registers and predicates.
type laneState struct {
	r  [rowRegs]uint32
	p  uint8
	id uint32 // the lane's number, which is its thread's in the harness's block
}

func (s *laneState) reg(x sass.Reg) uint32 {
	if x == sass.RZ {
		return 0
	}
	return s.r[x]
}

func (s *laneState) reg64(x sass.Reg) uint64 {
	if x == sass.RZ {
		return 0
	}
	return pair(s.r[x], s.r[x+1])
}

func (s *laneState) set(x sass.Reg, v uint32) {
	if x != sass.RZ {
		s.r[x] = v
	}
}

func (s *laneState) set64(x sass.Reg, v uint64) {
	if x != sass.RZ {
		s.r[x], s.r[x+1] = uint32(v), uint32(v>>32)
	}
}

func (s *laneState) pred(p sass.Pred) bool { return p == sass.PT || s.p>>p&1 != 0 }

// refLane is what one lane does when it executes in.
func refLane(in *sass.Inst, s *laneState) {
	a, b, c := s.reg(in.Src1), s.reg(in.Src2), s.reg(in.Src3)
	y, wide := b+uint32(int32(in.Imm)), in.Mods.Wide()
	switch in.Op {
	case sass.OpMOV:
		if wide {
			s.set64(in.Dst, s.reg64(in.Src1))
		} else {
			s.set(in.Dst, a)
		}
	case sass.OpMOVI:
		s.set(in.Dst, uint32(int32(in.Imm)))
	case sass.OpMOVIH:
		s.set(in.Dst, s.reg(in.Dst)&0xfffff|uint32(in.Imm)<<20)
	case sass.OpS2R:
		s.set(in.Dst, map[int64]uint32{sass.SRLaneID: s.id, sass.SRTIDX: s.id, sass.SRNTIDX: WarpSize}[in.Imm])
	case sass.OpSEL:
		if !s.pred(in.Mods.Aux()) {
			a = b
		}
		s.set(in.Dst, a)
	case sass.OpIADD:
		if wide {
			s.set64(in.Dst, s.reg64(in.Src1)+s.reg64(in.Src2)+uint64(in.Imm))
		} else {
			s.set(in.Dst, a+y)
		}
	case sass.OpIMUL:
		s.set(in.Dst, a*b)
	case sass.OpIMAD:
		if wide {
			s.set64(in.Dst, uint64(a)*uint64(b)+s.reg64(in.Src3))
		} else {
			s.set(in.Dst, a*b+c)
		}
	case sass.OpISETP:
		lt, eq := int32(a) < int32(y), a == y
		if in.Mods.Flag() {
			lt = a < y
		}
		holds := [...]bool{sass.CmpEQ: eq, sass.CmpNE: !eq, sass.CmpLT: lt, sass.CmpLE: lt || eq, sass.CmpGT: !lt && !eq, sass.CmpGE: !lt}[in.Mods.SubOp()]
		if p := in.Mods.Aux(); p != sass.PT {
			s.p &^= 1 << p
			if holds {
				s.p |= 1 << p
			}
		}
	case sass.OpSHL:
		s.set(in.Dst, a<<(y&31))
	case sass.OpSHR:
		s.set(in.Dst, a>>(y&31))
	case sass.OpLOP:
		s.set(in.Dst, [...]uint32{sass.LopAnd: a & y, sass.LopOr: a | y, sass.LopXor: a ^ y, sass.LopNot: ^a}[in.Mods.SubOp()])
	case sass.OpPOPC:
		s.set(in.Dst, uint32(bits.OnesCount32(a)))
	case sass.OpI2F:
		s.set(in.Dst, f32bits(float32(int32(a))))
	case sass.OpFADD:
		s.set(in.Dst, refAdd(a, b))
	case sass.OpFMUL:
		s.set(in.Dst, refMul(a, b))
	case sass.OpFFMA:
		s.set(in.Dst, refFMA(a, b, c))
	}
}

// rowHarness is a warp parked on a short program, with the state the row
// tests randomize, read back and compare.
type rowHarness struct {
	*stepHarness
	in *sass.Inst // the program's first instruction
}

func newRowHarness(t testing.TB, d *Device, prog string) *rowHarness {
	h := &rowHarness{stepHarness: newStepHarness(t, d, prog)}
	in, err := d.fetch(h.entry)
	if err != nil {
		t.Fatal(err)
	}
	h.in = in
	return h
}

// randomize fills the compared registers and the predicates from r. Float
// opcodes draw from the classes that route lanes to the float64 path.
func (h *rowHarness) randomize(r *rand.Rand) {
	float := h.in.Op == sass.OpFADD || h.in.Op == sass.OpFMUL || h.in.Op == sass.OpFFMA
	for k := 0; k < rowRegs; k++ {
		for i := range h.w.regs[k] {
			switch {
			case float:
				h.w.regs[k][i] = operand(r)
			case r.Intn(4) == 0: // small values: equal operands, zero shifts
				h.w.regs[k][i] = uint32(r.Intn(5)) - 2
			default:
				h.w.regs[k][i] = r.Uint32()
			}
		}
	}
	for i := range h.w.preds {
		h.w.preds[i] = uint8(r.Intn(128))
	}
}

// run executes n instructions from the program's start on the lanes of act.
func (h *rowHarness) run(t testing.TB, act uint32, n int) {
	h.c.stats, h.w.cycles = Stats{}, 0
	h.w.live, h.w.act, h.w.wmin = act, act, noWaiter
	h.w.upc, h.c.wdLeft = h.entry, int64(n)
	for k := 0; k < n; k++ {
		if err := h.c.step(h.w); err != nil {
			t.Fatal(err)
		}
	}
}

func (h *rowHarness) lane(i int) (s laneState) {
	for k := range s.r {
		s.r[k] = h.w.regs[k][i]
	}
	s.p, s.id = h.w.preds[i], uint32(i)
	return s
}

// sameLane compares two lanes bit for bit, or as floats (NaNs alike) where a
// float opcode wrote.
func sameLane(in *sass.Inst, got, want laneState) bool {
	for k := range got.r {
		if got.r[k] != want.r[k] && !(sass.Reg(k) == in.Dst && in.Op >= sass.OpFADD && in.Op <= sass.OpFFMA && sameF32(got.r[k], want.r[k])) {
			return false
		}
	}
	return got.p == want.p
}

// TestRowMaskOracle runs every row case three ways from one random state:
// unguarded on the full warp, split over a random P0 into `@P0 op ; @!P0 op`,
// and lane by lane through refLane. Registers, predicates, statistics (less
// the second issue) and cycles must agree, on both codecs.
func TestRowMaskOracle(t *testing.T) {
	// An opcode marked as a row operation writes all 32 lanes of o: one that
	// no case below executes under a partial mask would go unchecked.
	covered := map[sass.Opcode]bool{}
	for _, inst := range rowCases {
		in, err := sass.ParseInst(inst)
		if err != nil {
			t.Fatal(err)
		}
		covered[in.Op] = true
	}
	for op, row := range rowOps {
		if row && !covered[sass.Opcode(op)] {
			t.Errorf("%v is in rowOps and in no row case", sass.Opcode(op))
		}
	}
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		d := newTestDevice(t, fam)
		r := rand.New(rand.NewSource(int64(fam) + 21))
		for _, inst := range rowCases {
			whole := newRowHarness(t, d, inst)
			split := newRowHarness(t, d, "@P0 "+inst+"\n@!P0 "+inst)
			for n := 0; n < 50; n++ {
				whole.randomize(r)
				if n == 0 { // P0 all set: the second half executes nowhere
					for i := range whole.w.preds {
						whole.w.preds[i] |= 1
					}
				}
				split.w.regs, split.w.preds = whole.w.regs, whole.w.preds
				var want [WarpSize]laneState
				for i := range want {
					want[i] = whole.lane(i)
					refLane(whole.in, &want[i])
				}
				whole.run(t, fullMask, 1)
				split.run(t, fullMask, 2)
				for i := range want {
					if got := whole.lane(i); !sameLane(whole.in, got, want[i]) {
						t.Fatalf("%v %s lane %d: %+v, scalar reference %+v", fam, inst, i, got, want[i])
					}
					if got := split.lane(i); !sameLane(whole.in, got, want[i]) {
						t.Fatalf("%v %s lane %d split over P0: %+v, scalar reference %+v", fam, inst, i, got, want[i])
					}
				}
				once := whole.c.stats
				once.WarpInstrs++
				once.ThreadInstrs += WarpSize
				once.OpCounts[whole.in.Op]++
				once.OpThreads[whole.in.Op] += WarpSize
				if split.c.stats != once || split.w.cycles != 2*whole.w.cycles {
					t.Fatalf("%v %s: split statistics %+v cycles %d, whole %+v cycles %d", fam, inst, split.c.stats, split.w.cycles, whole.c.stats, whole.w.cycles)
				}
			}
		}
	}
}

// rowFuzzHarnesses holds one `@P0 op` harness per row case, built on first
// use: a fuzz worker executes far more inputs than code space has room for
// programs.
var rowFuzzHarnesses []*rowHarness

// FuzzStepMasks executes `@P0 op` with any active group and any P0: the
// lanes of both change as refLane says, no other lane changes at all, and
// the statistics count one issue over the active group.
func FuzzStepMasks(f *testing.F) {
	f.Add(uint8(0), uint32(fullMask), uint32(fullMask), int64(1))
	f.Add(uint8(21), uint32(fullMask), uint32(0), int64(2))
	f.Add(uint8(45), uint32(0xffff), uint32(0xa5a5a5a5), int64(3))
	f.Add(uint8(52), uint32(1<<31), uint32(fullMask&^(1<<13)), int64(4))
	f.Add(uint8(90), uint32(fullMask), uint32(fullMask&^1), int64(5))
	f.Fuzz(func(t *testing.T, which uint8, act, p0 uint32, seed int64) {
		if rowFuzzHarnesses == nil {
			d := newTestDevice(t, sass.Volta)
			for _, inst := range rowCases {
				rowFuzzHarnesses = append(rowFuzzHarnesses, newRowHarness(t, d, "@P0 "+inst))
			}
		}
		h := rowFuzzHarnesses[int(which)%len(rowCases)]
		if act == 0 {
			act = 1 // step needs a live lane
		}
		h.randomize(rand.New(rand.NewSource(seed)))
		for i := range h.w.preds {
			h.w.preds[i] = h.w.preds[i]&^1 | uint8(p0>>uint(i)&1)
		}
		var want [WarpSize]laneState
		for i := range want {
			want[i] = h.lane(i)
			if act&p0>>uint(i)&1 != 0 {
				refLane(h.in, &want[i])
			}
		}
		h.run(t, act, 1)
		for i := range want {
			if got := h.lane(i); !sameLane(h.in, got, want[i]) {
				t.Fatalf("%s on active %#x, P0 %#x, lane %d: %+v, scalar reference %+v", rowCases[int(which)%len(rowCases)], act, p0, i, got, want[i])
			}
		}
		var st Stats
		st.WarpInstrs, st.ThreadInstrs = 1, uint64(bits.OnesCount32(act))
		st.OpCounts[h.in.Op], st.OpThreads[h.in.Op] = 1, st.ThreadInstrs
		if h.c.stats != st || h.w.cycles != issueCost(h.in.Op) {
			t.Fatalf("statistics %+v cycles %d after one %v on %d lanes", h.c.stats, h.w.cycles, h.in.Op, st.ThreadInstrs)
		}
	})
}
