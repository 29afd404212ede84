package gpu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nvbitgo/internal/sass"
)

// The reference: the float32 expressions step evaluated on every lane before
// float.go, assists and all. FFMA is a multiply, rounded, then an add.
func refAdd(x, y uint32) uint32    { return f32bits(f32(x) + f32(y)) }
func refMul(x, y uint32) uint32    { return f32bits(f32(x) * f32(y)) }
func refFMA(x, y, z uint32) uint32 { return f32bits(float32(f32(x)*f32(y)) + f32(z)) }
func refMin(x, y uint32) uint32 {
	return f32bits(float32(math.Min(float64(f32(x)), float64(f32(y)))))
}
func refMax(x, y uint32) uint32 {
	return f32bits(float32(math.Max(float64(f32(x)), float64(f32(y)))))
}

var mufuRef = [...]func(float64) float64{
	sass.MufuRcp:  func(x float64) float64 { return 1 / x },
	sass.MufuRsq:  func(x float64) float64 { return 1 / math.Sqrt(x) },
	sass.MufuSqrt: math.Sqrt,
	sass.MufuSin:  math.Sin,
	sass.MufuCos:  math.Cos,
	sass.MufuEx2:  math.Exp2,
	sass.MufuLg2:  math.Log2,
}

func refMufu(sub int, x uint32) uint32 { return f32bits(float32(mufuRef[sub](float64(f32(x))))) }

// sameF32 compares two results bit for bit, except that two NaNs are equal
// whatever their payloads. The payload of a NaN made from two NaN operands
// follows the operand order of the x86 instruction, and the compiler is free
// to order the operands of a commutative operation differently in each
// inlined copy of one expression — which is also why a lane with a NaN
// operand bypasses the float64 path before any other test.
func sameF32(got, want uint32) bool {
	isNaN := func(x uint32) bool { return x<<1 > 0xff<<24 }
	return got == want || isNaN(got) && isNaN(want)
}

// operand draws register bits from the classes that separate the float64
// path from the float32 expressions.
func operand(r *rand.Rand) uint32 {
	sign := uint32(r.Intn(2)) << 31
	frac := r.Uint32() & (1<<23 - 1)
	exp := func(lo, hi int) uint32 { return uint32(lo+r.Intn(hi-lo+1)) << 23 }
	switch r.Intn(12) {
	case 0: // small integers, what specaccel seeds its buffers with
		return uint32(r.Intn(1024))
	case 1, 2: // any subnormal
		return sign | frac
	case 3: // the smallest normals: sums and products around 2⁻¹²⁶
		return sign | exp(1, 3) | frac
	case 4: // around the exponent that separates ordinary from odd
		return sign | exp(60, 70) | frac
	case 5: // around one
		return sign | exp(120, 134) | frac
	case 6:
		return sign // ±0
	case 7:
		return sign | 0xff<<23 // ±Inf
	case 8: // smallest normal, largest subnormal, largest finite
		return sign | [...]uint32{1 << 23, 1<<23 - 1, 0xff<<23 - 1}[r.Intn(3)]
	case 9: // quiet and signalling NaN
		return sign | 0xff<<23 | uint32(r.Intn(2))<<22 | 1 + frac&(1<<22-2)
	case 10: // powers of two: exact products, ties when rounding
		return sign | exp(0, 254)
	}
	return r.Uint32()
}

func checkFloatOps(t *testing.T, x, y, z uint32) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"addF32", addF32(x, y), refAdd(x, y)},
		{"mulF32", mulF32(x, y), refMul(x, y)},
		{"fmaF32", fmaF32(x, y, z), refFMA(x, y, z)},
		{"minF32u", minF32u(x, y), refMin(x, y)},
		{"maxF32u", maxF32u(x, y), refMax(x, y)},
		{"narrow(widen)", narrow(widen(x)), f32bits(float32(float64(f32(x))))},
	} {
		if !sameF32(c.got, c.want) {
			t.Fatalf("%s(%#08x, %#08x, %#08x) = %#08x, the float32 expression gives %#08x", c.name, x, y, z, c.got, c.want)
		}
	}
}

// TestFloatOpsTable compares every helper of float.go with the float32
// expression it replaces over a seeded table of operand triples.
func TestFloatOpsTable(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		checkFloatOps(t, operand(r), operand(r), operand(r))
	}
}

func FuzzFloatOps(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		f.Add(operand(r), operand(r), operand(r))
	}
	f.Add(uint32(5), uint32(0x40000000), uint32(7))
	f.Add(uint32(1<<23), uint32(0x3f7fffff), uint32(0x80000001))
	f.Fuzz(func(t *testing.T, x, y, z uint32) { checkFloatOps(t, x, y, z) })
}

// stepHarness is one full warp parked on a single instruction, which step
// executes again each time it is called.
type stepHarness struct {
	c     *execContext
	w     *warp
	entry int32
}

func newStepHarness(t testing.TB, d *Device, inst string) *stepHarness {
	entry := loadSASS(t, d, inst+"\nEXIT")
	c := d.newExecContext(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(WarpSize)}, d.l2)
	h := &stepHarness{c: c, w: c.warps[0], entry: int32(entry)}
	h.w.reset(0, WarpSize, h.entry)
	return h
}

func (h *stepHarness) step(t testing.TB) {
	h.w.upc, h.c.wdLeft = h.entry, 1
	if err := h.c.step(h.w); err != nil {
		t.Fatal(err)
	}
}

// TestStepFloatRows runs the float instructions through step, which routes
// each lane of a row by itself: rows mix ordinary, subnormal and special
// operands, on full and partial masks, and the destination may be a source.
func TestStepFloatRows(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	type row = [WarpSize]uint32
	type floatOp struct {
		inst string
		ref  func(x, y, z uint32) uint32
	}
	ops := []floatOp{
		{"FADD R3, R0, R1", func(x, y, _ uint32) uint32 { return refAdd(x, y) }},
		{"FMUL R3, R0, R1", func(x, y, _ uint32) uint32 { return refMul(x, y) }},
		{"FFMA R3, R0, R1, R2", refFMA},
		{"FFMA R0, R0, R1, R2", refFMA},
		{"FFMA R2, R0, R1, R2", refFMA},
	}
	for sub := range mufuRef {
		sub := sub
		ops = append(ops, floatOp{"MUFU." + sass.OpMUFU.SubOpName(sub) + " R3, R0", func(x, _, _ uint32) uint32 { return refMufu(sub, x) }})
	}
	r := rand.New(rand.NewSource(5))
	for _, op := range ops {
		h := newStepHarness(t, d, op.inst)
		in, err := d.fetch(h.entry)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2000; n++ {
			var x, y, z, before row
			for i := range x {
				x[i], y[i], z[i], before[i] = operand(r), operand(r), operand(r), r.Uint32()
			}
			mask := [...]uint32{fullMask, r.Uint32() | 1, 1 << uint(r.Intn(WarpSize))}[n%3]
			h.w.regs[0], h.w.regs[1], h.w.regs[2], h.w.regs[3] = x, y, z, before
			// A source the instruction overwrites holds the result afterwards.
			before = h.w.regs[in.Dst]
			h.w.live, h.w.act = mask, mask
			h.step(t)
			got := h.w.regs[in.Dst]
			for i := range got {
				want := before[i]
				if mask>>uint(i)&1 != 0 {
					want = op.ref(x[i], y[i], z[i])
				}
				if !sameF32(got[i], want) {
					t.Fatalf("%s lane %d of mask %#x: (%#08x, %#08x, %#08x) gives %#08x, want %#08x", op.inst, i, mask, x[i], y[i], z[i], got[i], want)
				}
			}
		}
	}
}

// TestMufuSubnormal pins MUFU on subnormal inputs and on results that
// underflow, which widen and narrow take by hand.
func TestMufuSubnormal(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	inputs := []uint32{
		1, 5, 1 << 22, 1<<23 - 1, 1 << 23, 0x80000001, 0x807fffff, // subnormals and the smallest normal
		0x7f7fffff, 0x7e800000, 0xfe800000, // 1/x underflows
		0xc3000000, 0xc3020000, 0xc3150000, 0xc3160000, // 2^x for x = -128, -130, -149, -150
		0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000,
	}
	for sub := range mufuRef {
		h := newStepHarness(t, d, "MUFU."+sass.OpMUFU.SubOpName(sub)+" R3, R0")
		for i, x := range inputs {
			h.w.regs[0][i] = x
		}
		h.step(t)
		for i, x := range inputs {
			if got, want := h.w.regs[3][i], refMufu(sub, x); !sameF32(got, want) {
				t.Errorf("MUFU.%s(%#08x) = %#08x, want %#08x", sass.OpMUFU.SubOpName(sub), x, got, want)
			}
		}
	}
}

// TestFFMATwoRoundings pins FFMA as a multiply, rounded to float32, then an
// add: (1+2⁻¹²)² is 1+2⁻¹¹+2⁻²⁴, which rounds to 1+2⁻¹¹, so adding -(1+2⁻¹¹)
// leaves 0 where a fused multiply-add would leave 2⁻²⁴. Every golden of the
// repository was recorded with the two roundings.
func TestFFMATwoRoundings(t *testing.T) {
	a, c := f32bits(1+0x1p-12), f32bits(-(1 + 0x1p-11))
	if got := fmaF32(a, a, c); got != 0 {
		t.Errorf("fmaF32 = %#08x (%g), want 0", got, f32(got))
	}
	if got := fmaPlain(a, a, c); got != 0 {
		t.Errorf("fmaPlain = %#08x (%g), want 0", got, f32(got))
	}
	h := newStepHarness(t, newTestDevice(t, sass.Volta), "FFMA R3, R0, R1, R2")
	h.w.regs[0][7], h.w.regs[1][7], h.w.regs[2][7] = a, a, c
	h.step(t)
	if got := h.w.regs[3][7]; got != 0 {
		t.Errorf("FFMA = %#08x (%g), want 0", got, f32(got))
	}
	// The same through the float64 path: 2⁻⁷⁰(1+2⁻¹²) is not ordinary.
	s := f32bits(0x1p-70 * (1 + 0x1p-12))
	b, c2 := f32bits(0x1p70*(1+0x1p-12)), c
	if got := fmaF32(s, b, c2); got != 0 {
		t.Errorf("fmaF32 on a small operand = %#08x (%g), want 0", got, f32(got))
	}
}

// TestFloatRedSubnormal runs the float reductions on subnormal values: their
// sums are the sums of their bit patterns.
func TestFloatRedSubnormal(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	buf, _ := d.Malloc(16)
	init := make([]byte, 16)
	binary.LittleEndian.PutUint32(init[4:], 0x7f7fffff)
	binary.LittleEndian.PutUint32(init[8:], 0xff7fffff)
	if err := d.Write(buf, init); err != nil {
		t.Fatal(err)
	}
	entry := loadSASS(t, d, `
		LDC.W R4, c[1][0]
		S2R R2, SR_LANEID
		IADD R2, R2, RZ, 1        // bits 1..32: subnormal floats
		RED.ADD.F [R4], R2
		RED.MIN.F [R4+4], R2
		RED.MAX.F [R4+8], R2
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(32), u64param(buf), 0)
	out := make([]byte, 12)
	if err := d.Read(buf, out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint32{32 * 33 / 2, 1, 32} {
		if got := binary.LittleEndian.Uint32(out[4*i:]); got != want {
			t.Errorf("%s = %#x, want %#x", [...]string{"RED.ADD.F", "RED.MIN.F", "RED.MAX.F"}[i], got, want)
		}
	}
}

// BenchmarkStepFloat is the host cost of one float warp instruction by the
// class of value in its registers. CI compares the two classes of ffma.
func BenchmarkStepFloat(b *testing.B) {
	const one, two, three = 0x3f800000, 0x40000000, 0x40400000
	for _, op := range []struct{ name, inst string }{
		{"ffma", "FFMA R3, R0, R1, R2"},
		{"fmul", "FMUL R3, R0, R1"},
		{"fadd", "FADD R3, R0, R1"},
		{"mufu", "MUFU.RCP R3, R0"},
	} {
		for _, class := range []struct {
			name    string
			x, y, z uint32
		}{
			{"normal", three, two, one},
			// What specaccel's integer-seeded buffers hold: a subnormal
			// times a constant, added to a subnormal.
			{"subnormal", 5, two, 7},
		} {
			b.Run(op.name+"/"+class.name, func(b *testing.B) {
				h := newStepHarness(b, newTestDevice(b, sass.Volta), op.inst)
				for i := 0; i < WarpSize; i++ {
					h.w.regs[0][i], h.w.regs[1][i], h.w.regs[2][i] = class.x+uint32(i), class.y, class.z
				}
				h.step(b) // the first fetch decodes and allocates the chunk's cache
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					h.step(b)
				}
			})
		}
	}
}

// BenchmarkStepRow is the host cost of one register-to-register warp
// instruction on a full warp and on one with a single lane off. CI compares
// the two masks of each opcode: a converged warp is the cheap case.
func BenchmarkStepRow(b *testing.B) {
	for _, op := range []struct{ name, inst string }{
		{"iadd", "IADD R3, R0, R1, 5"},
		{"imad.wide", "IMAD.W R4, R0, R1, R2"},
		{"isetp", "ISETP.LT P1, R0, R1, 0"},
		{"ffma", "FFMA R3, R0, R1, R2"},
	} {
		for _, mask := range []struct {
			name string
			act  uint32
		}{{"full", fullMask}, {"lanes31", fullMask &^ (1 << 13)}} {
			b.Run(op.name+"/"+mask.name, func(b *testing.B) {
				h := newStepHarness(b, newTestDevice(b, sass.Volta), op.inst)
				for i := 0; i < WarpSize; i++ {
					h.w.regs[0][i], h.w.regs[1][i], h.w.regs[2][i], h.w.regs[3][i] = 0x40400000+uint32(i), 0x40000000, 0x3f800000, 0
				}
				h.w.live, h.w.act = mask.act, mask.act
				h.step(b) // the first fetch decodes and allocates the chunk's cache
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					h.step(b)
				}
			})
		}
	}
}
