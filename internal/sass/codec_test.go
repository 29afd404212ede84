package sass

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// rowMods lists, per opcode, every Mods value its row names: the ones Check
// accepts. Every test instruction draws its modifiers from here.
var rowMods = func() (t [NumOpcodes][]Mods) {
	for op := range t {
		in := NewInst(Opcode(op))
		for m := 0; m < 256; m++ {
			if in.Mods = Mods(m); in.Check() == nil {
				t[op] = append(t[op], in.Mods)
			}
		}
	}
	return t
}()

// TestRowModsCount pins how many (opcode, Mods) pairs the rows name, out of
// the 14 080 an opcode and a Mods byte can spell.
func TestRowModsCount(t *testing.T) {
	n := 0
	for op := range rowMods {
		if len(rowMods[op]) == 0 {
			t.Errorf("%v takes no Mods value", Opcode(op))
		}
		n += len(rowMods[op])
	}
	if n != 326 {
		t.Fatalf("the rows name %d (opcode, Mods) pairs, want 326", n)
	}
}

// randomInst produces a valid, encodable instruction for the given family.
func randomInst(r *rand.Rand, f Family) Inst {
	return randomInstOf(r, f, Opcode(r.Intn(NumOpcodes)))
}

// randomInstOf produces a valid, encodable op for the given family, its
// modifiers drawn from the op's row.
func randomInstOf(r *rand.Rand, f Family, op Opcode) Inst {
	in := Inst{
		Op:      op,
		Pred:    Pred(r.Intn(8)),
		PredNeg: r.Intn(2) == 0,
		Dst:     Reg(r.Intn(256)),
		Src1:    Reg(r.Intn(256)),
		Src2:    Reg(r.Intn(256)),
		Src3:    RZ,
		Mods:    rowMods[op][r.Intn(len(rowMods[op]))],
	}
	switch {
	case in.HasSrc3():
		in.Src3 = Reg(r.Intn(256))
	case in.Op == OpS2R:
		in.Imm = int64(r.Intn(NumSpecialRegs))
	case f == Volta:
		in.Imm = r.Int63() - r.Int63()
	case in.Op == OpMOVIH:
		in.Imm = int64(r.Intn(MovihMax + 1))
	case immUnsigned(in.Op):
		in.Imm = int64(r.Intn(Imm20UMax + 1))
	default:
		in.Imm = int64(r.Intn(imm20Max-imm20Min+1)) + imm20Min
	}
	return in
}

func TestCodecRoundTripAllFamilies(t *testing.T) {
	for f := Kepler; f <= Volta; f++ {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			c := CodecFor(f)
			r := rand.New(rand.NewSource(int64(f) + 1))
			buf := make([]byte, c.InstBytes())
			for i := 0; i < 5000; i++ {
				in := randomInst(r, f)
				if err := c.Encode(in, buf); err != nil {
					t.Fatalf("encode %+v: %v", in, err)
				}
				got, err := c.Decode(buf)
				if err != nil {
					t.Fatalf("decode of %+v: %v", in, err)
				}
				if got != in {
					t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", in, got)
				}
			}
		})
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	c := CodecFor(Pascal)
	fn := func(opRaw uint8, mods uint8, dst, s1, s2 uint8, immRaw int32, predRaw uint8, neg bool) bool {
		op := Opcode(int(opRaw) % NumOpcodes)
		in := Inst{
			Op:      op,
			Mods:    rowMods[op][int(mods)%len(rowMods[op])],
			Pred:    Pred(predRaw % 8),
			PredNeg: neg,
			Dst:     Reg(dst),
			Src1:    Reg(s1),
			Src2:    Reg(s2),
			Src3:    RZ,
		}
		switch {
		case in.HasSrc3():
			in.Src3 = Reg(s2)
		case in.Op == OpS2R:
			in.Imm = int64(uint32(immRaw) % NumSpecialRegs)
		case in.Op == OpMOVIH:
			in.Imm = int64(uint32(immRaw) % (MovihMax + 1))
		case immUnsigned(in.Op):
			in.Imm = int64(uint32(immRaw) % (Imm20UMax + 1))
		default:
			in.Imm = int64(immRaw % imm20Max)
		}
		buf := make([]byte, c.InstBytes())
		if err := c.Encode(in, buf); err != nil {
			return false
		}
		got, err := c.Decode(buf)
		return err == nil && got == in
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecFamilyOpcodePermutationsDiffer(t *testing.T) {
	// The same instruction must encode to different opcode bytes on at
	// least some family pairs; decoding with the wrong codec must not
	// silently produce the same opcode for all instructions.
	differs := 0
	for op := 0; op < NumOpcodes; op++ {
		if CodecFor(Kepler).enc[op] != CodecFor(Volta).enc[op] {
			differs++
		}
	}
	if differs < NumOpcodes/2 {
		t.Fatalf("family opcode permutations too similar: only %d/%d differ", differs, NumOpcodes)
	}
}

func TestCodecPermutationIsBijective(t *testing.T) {
	for f := Kepler; f <= Volta; f++ {
		c := CodecFor(f)
		seen := make(map[byte]bool)
		for op := 0; op < NumOpcodes; op++ {
			b := c.enc[op]
			if seen[b] {
				t.Fatalf("%v: opcode byte %#02x assigned twice", f, b)
			}
			seen[b] = true
			if c.dec[b] != int16(op) {
				t.Fatalf("%v: dec[enc[%v]] = %d", f, Opcode(op), c.dec[b])
			}
		}
	}
}

func TestCodecRejectsIllegalOpcodeByte(t *testing.T) {
	c := CodecFor(Maxwell)
	// Find a byte that is not a legal encoding.
	var illegal byte
	found := false
	for b := 0; b < 256; b++ {
		if c.dec[b] < 0 {
			illegal = byte(b)
			found = true
			break
		}
	}
	if !found {
		t.Skip("opcode space saturated")
	}
	buf := make([]byte, 8)
	buf[0] = illegal
	if _, err := c.Decode(buf); err == nil {
		t.Fatal("decode of illegal opcode byte succeeded")
	}
}

// plain is the Mods of an instruction without modifiers.
var plain = MakeMods(0, false, false, PT)

// patchMods returns a patch that rewrites a word's Mods byte, byte 1 in both
// layouts.
func patchMods(f func(Mods) Mods) func(word []byte) {
	return func(w []byte) { w[1] = byte(f(Mods(w[1]))) }
}

func setWide(m Mods) Mods { return m | modWide }

// unencodable are words no encoder writes: each is a legal instruction's
// word with the one field patched.
var unencodable = []struct {
	name  string
	f     Family
	legal Inst
	patch func(word []byte)
}{
	{"64-bit MOVIH field one past MovihMax", Kepler, Inst{Op: OpMOVIH, Pred: PT, Dst: 4, Src1: RZ, Src2: RZ, Src3: RZ, Imm: MovihMax, Mods: plain},
		func(w []byte) { w[7], w[6], w[5] = 0x01, 0, w[5]&0x0f }},
	{"64-bit MOVIH field all ones", Pascal, Inst{Op: OpMOVIH, Pred: PT, Dst: 4, Src1: RZ, Src2: RZ, Src3: RZ, Mods: plain},
		func(w []byte) { w[7], w[6], w[5] = 0xff, 0xff, w[5]|0xf0 }},
	{"Volta IMAD with an immediate", Volta, Inst{Op: OpIMAD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9, Mods: plain},
		func(w []byte) { w[8] = 5 }},
	{"Volta FFMA with an immediate", Volta, Inst{Op: OpFFMA, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9, Mods: plain},
		func(w []byte) { w[15] = 0x80 }},
	{"64-bit IMAD with bit 52 set over src3", Kepler, Inst{Op: OpIMAD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9, Mods: plain},
		func(w []byte) { w[6] |= 0x10 }},
	{"64-bit FFMA with the top immediate bit set", Maxwell, Inst{Op: OpFFMA, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9, Mods: plain},
		func(w []byte) { w[7] |= 0x80 }},
	{"Volta reserved byte 7", Volta, Inst{Op: OpIADD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: RZ, Mods: plain},
		func(w []byte) { w[7] = 0x5a }},
	{"Volta guard bits 4..7", Volta, Inst{Op: OpIADD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: RZ, Mods: plain},
		func(w []byte) { w[2] |= 0x10 }},
	// The executor reads and writes one register for these: .W is no form
	// of theirs.
	{"IMUL.W", Kepler, Inst{Op: OpIMUL, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: RZ, Mods: plain}, patchMods(setWide)},
	{"SHL.W", Maxwell, Inst{Op: OpSHL, Pred: PT, Dst: 2, Src1: 4, Src2: RZ, Src3: RZ, Imm: 3, Mods: plain}, patchMods(setWide)},
	{"SHR.W", Pascal, Inst{Op: OpSHR, Pred: PT, Dst: 2, Src1: 4, Src2: RZ, Src3: RZ, Imm: 3, Mods: plain}, patchMods(setWide)},
	{"LOP.W", Volta, Inst{Op: OpLOP, Pred: PT, Dst: 2, Src1: 4, Src2: 6, Src3: RZ, Mods: MakeMods(LopXor, false, false, PT)}, patchMods(setWide)},
	{"FFMA.W", Kepler, Inst{Op: OpFFMA, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9, Mods: plain}, patchMods(setWide)},
	{"MOVIH.W", Kepler, Inst{Op: OpMOVIH, Pred: PT, Dst: 4, Src1: RZ, Src2: RZ, Src3: RZ, Imm: 0x12, Mods: plain}, patchMods(setWide)},
	{"ISETP.W", Volta, Inst{Op: OpISETP, Pred: PT, Dst: RZ, Src1: 2, Src2: 4, Src3: RZ, Mods: MakeMods(CmpLT, false, true, 1)}, patchMods(setWide)},
	{"FADD with the flag bit", Pascal, Inst{Op: OpFADD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: RZ, Mods: plain},
		patchMods(func(m Mods) Mods { return m | modFlag })},
	{"LOP sub-op 4", Kepler, Inst{Op: OpLOP, Pred: PT, Dst: 2, Src1: 4, Src2: 6, Src3: RZ, Mods: MakeMods(LopNot, false, false, PT)},
		patchMods(func(m Mods) Mods { return m&^7 | 4 })},
	{"ATOM sub-op 7", Volta, Inst{Op: OpATOM, Pred: PT, Dst: 1, Src1: 4, Src2: 6, Src3: RZ, Mods: MakeMods(AtomXor, false, false, PT)},
		patchMods(func(m Mods) Mods { return m | 7 })},
	{"LDSA with an Aux predicate", Volta, Inst{Op: OpLDSA, Pred: PT, Dst: 5, Src1: RZ, Src2: RZ, Src3: RZ, Imm: 2, Mods: plain},
		patchMods(func(m Mods) Mods { return m.withAux(3) })},
	{"S2R of a special register outside the table", Volta, Inst{Op: OpS2R, Pred: PT, Dst: 5, Src1: RZ, Src2: RZ, Src3: RZ, Imm: SRSMID, Mods: plain},
		func(w []byte) { w[8] = NumSpecialRegs }},
}

// TestCodecRejectsUnencodable: a word no encoder writes is an illegal
// encoding, not an instruction Encode then refuses. Where the patch is to the
// modifiers, Encode refuses the instruction they spell.
func TestCodecRejectsUnencodable(t *testing.T) {
	for _, row := range unencodable {
		c := CodecFor(row.f)
		word := make([]byte, c.InstBytes())
		if err := c.Encode(row.legal, word); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if got, err := c.Decode(word); err != nil || got != row.legal {
			t.Fatalf("%s: the legal word decodes to %+v, %v", row.name, got, err)
		}
		row.patch(word)
		if got, err := c.Decode(word); err == nil {
			t.Errorf("%s: decoded to %+v, which Encode refuses (%v)", row.name, got, c.Encode(got, make([]byte, c.InstBytes())))
		}
		if bad := row.legal; Mods(word[1]) != bad.Mods {
			bad.Mods = Mods(word[1])
			if err := c.Encode(bad, make([]byte, c.InstBytes())); err == nil {
				t.Errorf("%s: Encode accepts %+v", row.name, bad)
			}
		}
	}
}

// FuzzCodecFixedPoint: for both layouts, any word Decode accepts must Encode
// back to itself, byte for byte, so it decodes to the same instruction again.
// The text round trips too: Format, then ParseInst, gives back the same
// opcode, modifiers, guard and operands.
func FuzzCodecFixedPoint(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for _, fam := range []Family{Kepler, Volta} {
		for i := 0; i < 64; i++ {
			word := make([]byte, 16)
			if err := CodecFor(fam).Encode(randomInst(r, fam), word); err != nil {
				f.Fatal(err)
			}
			f.Add(word)
		}
	}
	for _, row := range unencodable {
		word := make([]byte, 16)
		if err := CodecFor(row.f).Encode(row.legal, word); err != nil {
			f.Fatal(err)
		}
		row.patch(word)
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word []byte) {
		for fam := Kepler; fam <= Volta; fam++ {
			c := CodecFor(fam)
			in, err := c.Decode(word)
			if err != nil {
				continue
			}
			again := make([]byte, c.InstBytes())
			if err := c.Encode(in, again); err != nil {
				t.Fatalf("%v: % x decodes to %+v, which does not encode: %v", fam, word[:c.InstBytes()], in, err)
			}
			if !bytes.Equal(again, word[:c.InstBytes()]) {
				t.Fatalf("%v: % x decodes to %+v, which encodes as % x", fam, word[:c.InstBytes()], in, again)
			}
			text := Format(in)
			back, err := ParseInst(text)
			if err != nil || back.Op != in.Op || back.Mods != in.Mods || back.Pred != in.Pred || back.PredNeg != in.PredNeg ||
				!reflect.DeepEqual(back.Operands(), in.Operands()) {
				t.Fatalf("%v: % x decodes to %+v, which prints as %q and assembles to %+v (%v)", fam, word[:c.InstBytes()], in, text, back, err)
			}
		}
	})
}

func TestCodecImmediateRangeEnforced(t *testing.T) {
	c := CodecFor(Kepler)
	in := NewInst(OpIADD)
	in.Imm = 1 << 20
	if err := c.Encode(in, make([]byte, 8)); err == nil {
		t.Fatal("out-of-range immediate accepted on 64-bit family")
	}
	// Volta takes the same value.
	if err := CodecFor(Volta).Encode(in, make([]byte, 16)); err != nil {
		t.Fatalf("volta rejected a 64-bit immediate: %v", err)
	}
}

func TestCodecThreeSourceImmediateRule(t *testing.T) {
	c := CodecFor(Pascal)
	in := NewInst(OpIMAD)
	in.Src3 = Reg(9)
	in.Imm = 5
	if err := c.Encode(in, make([]byte, 8)); err == nil {
		t.Fatal("IMAD with immediate accepted")
	}
	in.Imm = 0
	buf := make([]byte, 8)
	if err := c.Encode(in, buf); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(buf)
	if err != nil || got.Src3 != Reg(9) {
		t.Fatalf("src3 lost: %+v err %v", got, err)
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	c := CodecFor(Volta)
	r := rand.New(rand.NewSource(7))
	insts := make([]Inst, 200)
	for i := range insts {
		insts[i] = randomInst(r, Volta)
	}
	buf, err := c.EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 200*16 {
		t.Fatalf("buffer length %d", len(buf))
	}
	got, err := c.DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("instruction %d mismatch", i)
		}
	}
	if _, err := c.DecodeAll(buf[:17]); err == nil {
		t.Fatal("ragged buffer accepted")
	}
}

func TestCrossFamilyDecodeDiffers(t *testing.T) {
	// A Kepler-encoded stream decoded with the Pascal codec must not
	// reproduce the original instruction stream (the HAL exists because
	// encodings are family-specific).
	k, p := CodecFor(Kepler), CodecFor(Pascal)
	r := rand.New(rand.NewSource(3))
	same := 0
	n := 500
	for i := 0; i < n; i++ {
		in := randomInst(r, Kepler)
		buf := make([]byte, 8)
		if err := k.Encode(in, buf); err != nil {
			t.Fatal(err)
		}
		got, err := p.Decode(buf)
		if err == nil && got.Op == in.Op {
			same++
		}
	}
	if same > n/4 {
		t.Fatalf("cross-family decode agreed on %d/%d opcodes", same, n)
	}
}

// TestPatchCallTarget: patching a CAL's target changes its immediate field
// and nothing else, for both encodings. An out-of-range target on a 64-bit
// family, as Encode refuses it, and a word that is not a CAL — a
// three-source op, whose immediate bits carry Src3, among them — are
// refused and left as they were.
func TestPatchCallTarget(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for f := Kepler; f <= Volta; f++ {
		c := CodecFor(f)
		refused := func(word []byte, target int64, what string) {
			t.Helper()
			before := slices.Clone(word)
			if err := c.PatchCallTarget(word, target); err == nil || !slices.Equal(word, before) {
				t.Fatalf("%v: %s patched to %d: %v, % x became % x", f, what, target, err, before, word)
			}
		}
		// Bits outside the immediate field: the low 44 of a 64-bit word,
		// the first eight bytes of a Volta word.
		rest := func(word []byte) uint64 {
			w := binary.LittleEndian.Uint64(word)
			if f == Volta {
				return w
			}
			return w & (1<<44 - 1)
		}
		for i := 0; i < 2000; i++ {
			call := randomInstOf(r, f, OpCAL)
			call.Imm = int64(r.Intn(Imm20UMax + 1))
			target := int64(r.Intn(Imm20UMax + 1))
			if f == Volta {
				target = r.Int63() - r.Int63()
			}
			word := make([]byte, c.InstBytes())
			if err := c.Encode(call, word); err != nil {
				t.Fatal(err)
			}
			before := slices.Clone(word)
			if err := c.PatchCallTarget(word, target); err != nil {
				t.Fatalf("%v: %+v to %d: %v", f, call, target, err)
			}
			want := call
			want.Imm = target
			if got, err := c.Decode(word); err != nil || got != want || rest(word) != rest(before) {
				t.Fatalf("%v: %+v patched to %d decodes to %+v (%v); % x became % x", f, call, target, got, err, before, word)
			}
			if f != Volta {
				refused(word, Imm20UMax+1+r.Int63n(1<<40), "CAL")
				refused(word, -1-r.Int63n(1<<40), "CAL")
			}
			refused(word[:len(word)-1], 0, "short word")

			other := randomInst(r, f)
			if i%4 == 0 {
				other = NewInst([]Opcode{OpIMAD, OpFFMA}[i/4%2])
				other.Src3 = Reg(r.Intn(256))
			}
			if other.Op == OpCAL {
				continue
			}
			if err := c.Encode(other, word); err != nil {
				t.Fatal(err)
			}
			refused(word, 0, other.Op.String())
		}
	}
}
