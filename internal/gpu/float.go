package gpu

import "math"

// The float32 datapath. x86 computes on float32 subnormals — an operand, a
// product that underflows, a sum that cancels below 2⁻¹²⁶ — through a
// microcode assist of some 150 cycles: twenty times the cost of any other
// lane. What an instruction costs the host must not depend on the values in
// its registers, so a lane that could take an assist is computed in float64,
// where every float32 subnormal is a normal number, and rounded to the
// float32 grid by hand. The results are bit-identical (float_test.go).

func f32(bits uint32) float32  { return math.Float32frombits(bits) }
func f32bits(f float32) uint32 { return math.Float32bits(f) }

// ordinary reports whether x is ±0 or has an exponent field of at least 64
// (|x| ≥ 2⁻⁶³, Inf and NaN included). Sums and products of ordinary values
// are zero or at least 2⁻¹²⁶ in magnitude, so float32 arithmetic on them
// never meets a subnormal.
func ordinary(x uint32) bool { return x&(3<<29) != 0 || x<<1 == 0 }

// finite reports whether x is neither Inf nor NaN.
func finite(x uint32) bool { return x<<1 < 0xff<<24 }

// widen converts float32 bits to float64 exactly. A subnormal is its
// significand times 2⁻¹⁴⁹, built from the integer so that no float32
// conversion sees it.
func widen(x uint32) float64 {
	if x<<1 >= 1<<24 {
		return float64(f32(x))
	}
	v := float64(int32(x&(1<<23-1))) * 0x1p-149
	if x>>31 != 0 {
		v = -v
	}
	return v
}

// narrow rounds v to float32, to nearest even, and returns the bits. Below
// the smallest normal the float32 grid is the multiples of 2⁻¹⁴⁹, and the
// multiple nearest to |v| is the bit pattern itself (2²³, the smallest
// normal, included).
func narrow(v float64) uint32 {
	if a := math.Abs(v); a < 0x1p-126 {
		// a·2¹⁴⁹ is at most 2²³: adding 2⁵² rounds it to an integer, to
		// nearest even, and leaves that integer in the low bits of the sum.
		return uint32(math.Float64bits(v)>>32)&(1<<31) | uint32(math.Float64bits(a*0x1p149+0x1p52))
	}
	return f32bits(float32(v))
}

// addPlain, mulPlain and fmaPlain are the float32 expressions of FADD, FMUL
// and FFMA on register bits, right for ordinary operands at full speed and
// for Inf and NaN at any.
func addPlain(x, y uint32) uint32 { return f32bits(f32(x) + f32(y)) }
func mulPlain(x, y uint32) uint32 { return f32bits(f32(x) * f32(y)) }

// fmaPlain is a multiply, rounded, then an add — never a fused multiply-add,
// which the explicit conversion of the product rules out on every target.
func fmaPlain(x, y, z uint32) uint32 { return f32bits(float32(f32(x)*f32(y)) + f32(z)) }

// addF32, mulF32 and fmaF32 are FADD, FMUL and FFMA for any operands (addF32
// is also the float ATOM/RED add). They are too large to inline: step tests
// for ordinary operands itself and calls them for the other lanes only. A
// lane with an Inf or NaN operand takes the float32 expression whatever else
// it holds, since the payload of a NaN result follows the operand order of
// the x86 instruction, which only that expression has. For finite operands
// float64 holds every product of two float32 values exactly, and a sum
// rounded to 53 bits and then to 24 is the sum rounded once (53 ≥ 2·24+2).

func addF32(x, y uint32) uint32 {
	if ordinary(x) && ordinary(y) || !finite(x) || !finite(y) {
		return addPlain(x, y)
	}
	return narrow(widen(x) + widen(y))
}

func mulF32(x, y uint32) uint32 {
	if ordinary(x) && ordinary(y) || !finite(x) || !finite(y) {
		return mulPlain(x, y)
	}
	return narrow(widen(x) * widen(y))
}

// fmaF32 keeps FFMA's two roundings in float64 as well: the product is
// rounded to float32 before the add.
func fmaF32(x, y, z uint32) uint32 {
	if ordinary(x) && ordinary(y) && ordinary(z) || !finite(x) || !finite(y) || !finite(z) {
		return fmaPlain(x, y, z)
	}
	return narrow(widen(narrow(widen(x)*widen(y))) + widen(z))
}

// minF32u and maxF32u are the float ATOM/RED minimum and maximum.
func minF32u(a, b uint32) uint32 { return narrow(math.Min(widen(a), widen(b))) }
func maxF32u(a, b uint32) uint32 { return narrow(math.Max(widen(a), widen(b))) }
