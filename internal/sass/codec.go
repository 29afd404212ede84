package sass

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Codec encodes and decodes instructions for one architecture family.
//
// Two binary layouts exist, mirroring the real hardware's generational split
// (paper Section 5.1, "Hardware Abstraction Layer"):
//
// 64-bit word (Kepler, Maxwell, Pascal):
//
//	bits  0..7   opcode (family-permuted)
//	bits  8..15  mods
//	bits 16..18  guard predicate, bit 19 guard negation
//	bits 20..27  dst
//	bits 28..35  src1
//	bits 36..43  src2
//	bits 44..63  imm (20-bit; signed except JMP/CAL which are unsigned word
//	             indexes and MOVIH which is unsigned and at most MovihMax).
//	             Three-source ops (IMAD, FFMA) multiplex src3 into the low 8
//	             immediate bits, require Imm == 0 and leave bits 52..63 zero.
//
// 128-bit word (Volta):
//
//	byte 0 opcode, byte 1 mods, byte 2 guard (bits 0..2 pred, bit 3 neg,
//	bits 4..7 zero), byte 3 dst, byte 4 src1, byte 5 src2, byte 6 src3,
//	byte 7 reserved (zero), bytes 8..15 imm (little-endian 64-bit; zero for
//	three-source ops).
//
// Opcode numbering is permuted per family with a deterministic shuffle, so a
// raw byte stream can only be disassembled with the right family codec —
// reproducing the property that SASS encodings are not stable across GPU
// generations and forcing all lifting through the HAL.
type Codec struct {
	family Family
	enc    [NumOpcodes]byte
	dec    [256]int16 // -1 = illegal
}

var codecs [int(Volta) + 1]*Codec

func init() {
	for f := Kepler; f <= Volta; f++ {
		codecs[f] = newCodec(f)
	}
}

// CodecFor returns the shared codec for a family.
func CodecFor(f Family) *Codec {
	if f < Kepler || f > Volta {
		panic(fmt.Sprintf("sass: no codec for %v", f))
	}
	return codecs[f]
}

func newCodec(f Family) *Codec {
	c := &Codec{family: f}
	// Deterministic per-family permutation of the opcode space (xorshift-
	// seeded Fisher-Yates over 0..255, then the first NumOpcodes slots of
	// the shuffled identity become the encodings).
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	seed := uint32(0x9e3779b9) ^ uint32(f+1)*0x85ebca6b
	next := func() uint32 {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return seed
	}
	for i := 255; i > 0; i-- {
		j := int(next() % uint32(i+1))
		tbl[i], tbl[j] = tbl[j], tbl[i]
	}
	for i := range c.dec {
		c.dec[i] = -1
	}
	for op := 0; op < NumOpcodes; op++ {
		c.enc[op] = tbl[op]
		c.dec[tbl[op]] = int16(op)
	}
	return c
}

// Family returns the architecture family this codec serves.
func (c *Codec) Family() Family { return c.family }

// InstBytes returns the fixed instruction width in bytes.
func (c *Codec) InstBytes() int { return c.family.InstBytes() }

const (
	imm20Min = -(1 << 19)
	imm20Max = 1<<19 - 1
	// Imm20UMax is the largest unsigned 20-bit immediate: the absolute
	// word-index limit for JMP/CAL targets on 64-bit families, and hence
	// the code-segment size limit (2^20 words * 8 bytes = 8 MiB).
	Imm20UMax = 1<<20 - 1
	// MovihMax is the largest MOVIH immediate (12 bits completing a
	// 32-bit constant on 64-bit families).
	MovihMax = 1<<12 - 1
)

func immUnsigned(op Opcode) bool { return op == OpJMP || op == OpCAL }

// ImmFits reports whether imm is encodable for op in family f.
func ImmFits(f Family, op Opcode, imm int64) bool {
	if f == Volta {
		return true // 64-bit immediate field
	}
	if op == OpMOVIH {
		return imm >= 0 && imm <= MovihMax
	}
	if immUnsigned(op) {
		return imm >= 0 && imm <= Imm20UMax
	}
	return imm >= imm20Min && imm <= imm20Max
}

// LoadImm32Words is the number of instructions AppendLoadImm32 emits for v:
// 1 where the value fits MOVI's immediate, else 2.
func LoadImm32Words(f Family, v uint32) int {
	if ImmFits(f, OpMOVI, int64(int32(v))) {
		return 1
	}
	return 2
}

// AppendLoadImm32 appends the instructions that load a 32-bit constant into
// r, legalized for the family's immediate width: one MOVI where the value
// fits, else MOVI for the low 20 bits (encoded sign-extended; MOVIH overwrites
// the top bits anyway) and MOVIH for bits 20..31.
func AppendLoadImm32(dst []Inst, f Family, r Reg, v uint32) []Inst {
	lo := NewInst(OpMOVI)
	lo.Dst, lo.Imm = r, int64(int32(v))
	if LoadImm32Words(f, v) == 1 {
		return append(dst, lo)
	}
	lo.Imm = int64(v&0xFFFFF) << 44 >> 44
	hi := NewInst(OpMOVIH)
	hi.Dst, hi.Imm = r, int64(v>>20)
	return append(dst, lo, hi)
}

// Encode writes the instruction into dst, which must be at least InstBytes
// long. It validates the modifiers (Inst.Check), immediate ranges and the
// three-source multiplexing rule.
func (c *Codec) Encode(in Inst, dst []byte) error {
	if !in.legal() {
		return fmt.Errorf("sass: encode: %w", in.Check())
	}
	if len(dst) < c.InstBytes() {
		return fmt.Errorf("sass: encode %v: buffer too small (%d < %d)", in.Op, len(dst), c.InstBytes())
	}
	if in.HasSrc3() && in.Imm != 0 {
		return fmt.Errorf("sass: encode %v: three-source ops cannot carry an immediate", in.Op)
	}
	if !ImmFits(c.family, in.Op, in.Imm) {
		return fmt.Errorf("sass: encode %v: immediate %d out of range for %v", in.Op, in.Imm, c.family)
	}
	if c.family == Volta {
		dst[0] = c.enc[in.Op]
		dst[1] = byte(in.Mods)
		g := byte(in.Pred & 7)
		if in.PredNeg {
			g |= 1 << 3
		}
		dst[2] = g
		dst[3] = byte(in.Dst)
		dst[4] = byte(in.Src1)
		dst[5] = byte(in.Src2)
		dst[6] = byte(in.Src3)
		dst[7] = 0
		binary.LittleEndian.PutUint64(dst[8:16], uint64(in.Imm))
		return nil
	}
	imm := in.Imm
	if in.HasSrc3() {
		imm = int64(in.Src3)
	}
	w := uint64(c.enc[in.Op])
	w |= uint64(in.Mods) << 8
	w |= uint64(in.Pred&7) << 16
	if in.PredNeg {
		w |= 1 << 19
	}
	w |= uint64(in.Dst) << 20
	w |= uint64(in.Src1) << 28
	w |= uint64(in.Src2) << 36
	w |= (uint64(imm) & 0xFFFFF) << 44
	binary.LittleEndian.PutUint64(dst[:8], w)
	return nil
}

// Decode parses one instruction from src. It accepts only words Encode writes
// back byte for byte: an opcode byte outside the family's permutation, a
// modifier the opcode's row does not name (Inst.Check), a 64-bit MOVIH whose
// field exceeds MovihMax, a 64-bit three-source op with bits over src3's in
// its immediate field, a set Volta reserved bit (guard bits 4..7, byte 7) and
// a Volta three-source op with a non-zero immediate are illegal encodings.
func (c *Codec) Decode(src []byte) (Inst, error) {
	if len(src) < c.InstBytes() {
		return Inst{}, fmt.Errorf("sass: decode: short buffer (%d < %d)", len(src), c.InstBytes())
	}
	// Both layouts keep the opcode in byte 0 and the mods in byte 1.
	op := c.dec[src[0]]
	if op < 0 {
		return Inst{}, fmt.Errorf("sass: decode: illegal %v opcode byte %#02x", c.family, src[0])
	}
	in := Inst{Op: Opcode(op), Mods: Mods(src[1])}
	if c.family == Volta {
		if src[2]>>4 != 0 || src[7] != 0 {
			return Inst{}, fmt.Errorf("sass: decode: illegal %v encoding: reserved bits set (guard %#02x, byte 7 %#02x)", c.family, src[2], src[7])
		}
		in.Pred, in.PredNeg = Pred(src[2]&7), src[2]&(1<<3) != 0
		in.Dst, in.Src1, in.Src2, in.Src3 = Reg(src[3]), Reg(src[4]), Reg(src[5]), Reg(src[6])
		in.Imm = int64(binary.LittleEndian.Uint64(src[8:16]))
		if in.Imm != 0 && in.HasSrc3() {
			return Inst{}, fmt.Errorf("sass: decode: illegal %v encoding: %v carries immediate %d", c.family, in.Op, in.Imm)
		}
	} else {
		w := binary.LittleEndian.Uint64(src[:8])
		in.Pred, in.PredNeg = Pred(w>>16&7), w&(1<<19) != 0
		in.Dst, in.Src1, in.Src2, in.Src3 = Reg(w>>20), Reg(w>>28), Reg(w>>36), RZ
		switch raw := w >> 44 & 0xFFFFF; {
		case in.HasSrc3() && raw > 0xFF:
			return Inst{}, fmt.Errorf("sass: decode: illegal %v encoding: %v immediate field %#x over src3's 8 bits", c.family, in.Op, raw)
		case in.HasSrc3():
			in.Src3 = Reg(raw)
		case in.Op == OpMOVIH && raw > MovihMax:
			return Inst{}, fmt.Errorf("sass: decode: illegal %v encoding: MOVIH immediate %#x over %#x", c.family, raw, MovihMax)
		case immUnsigned(in.Op) || in.Op == OpMOVIH:
			in.Imm = int64(raw)
		default:
			in.Imm = int64(raw<<44) >> 44 // sign-extend 20 bits
		}
	}
	if !in.legal() {
		return Inst{}, fmt.Errorf("sass: decode: illegal %v encoding: %w", c.family, in.Check())
	}
	return in, nil
}

// PatchCallTarget sets the absolute target of the encoded CAL in word, the
// one field a loader resolves, and leaves every other bit as it was. A word
// that is not a CAL, and a target Encode would refuse, are refused.
func (c *Codec) PatchCallTarget(word []byte, target int64) error {
	if len(word) != c.InstBytes() || c.dec[word[0]] != int16(OpCAL) {
		return fmt.Errorf("sass: patch: % x is not a %v CAL", word, c.family)
	}
	if !ImmFits(c.family, OpCAL, target) {
		return fmt.Errorf("sass: patch CAL: target %d out of range for %v", target, c.family)
	}
	if c.family == Volta {
		binary.LittleEndian.PutUint64(word[8:], uint64(target))
		return nil
	}
	w := binary.LittleEndian.Uint64(word)
	binary.LittleEndian.PutUint64(word, w&^(0xFFFFF<<44)|uint64(target)<<44)
	return nil
}

// EncodeAll encodes a sequence of instructions into a fresh buffer.
func (c *Codec) EncodeAll(insts []Inst) ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, len(insts)*c.InstBytes()), insts)
}

// AppendEncode appends the encoding of insts to dst. Encode writes every
// byte of an instruction's slot, so the slots need no zeroing.
func (c *Codec) AppendEncode(dst []byte, insts []Inst) ([]byte, error) {
	ib, n := c.InstBytes(), len(dst)
	dst = slices.Grow(dst, len(insts)*ib)[:n+len(insts)*ib]
	for i, in := range insts {
		if err := c.Encode(in, dst[n+i*ib:]); err != nil {
			return nil, fmt.Errorf("at instruction %d: %w", i, err)
		}
	}
	return dst, nil
}

// DecodeAll decodes a whole code buffer, which must be a multiple of the
// instruction width.
func (c *Codec) DecodeAll(buf []byte) ([]Inst, error) {
	ib := c.InstBytes()
	if len(buf)%ib != 0 {
		return nil, fmt.Errorf("sass: decode: buffer length %d not a multiple of %d", len(buf), ib)
	}
	out := make([]Inst, 0, len(buf)/ib)
	for off := 0; off < len(buf); off += ib {
		in, err := c.Decode(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("at offset %#x: %w", off, err)
		}
		out = append(out, in)
	}
	return out, nil
}
