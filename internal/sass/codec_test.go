package sass

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomInst produces a valid, encodable instruction for the given family.
func randomInst(r *rand.Rand, f Family) Inst {
	in := Inst{
		Op:      Opcode(r.Intn(NumOpcodes)),
		Pred:    Pred(r.Intn(8)),
		PredNeg: r.Intn(2) == 0,
		Dst:     Reg(r.Intn(256)),
		Src1:    Reg(r.Intn(256)),
		Src2:    Reg(r.Intn(256)),
		Src3:    RZ,
		Mods:    Mods(r.Intn(256)),
	}
	if in.HasSrc3() {
		in.Src3 = Reg(r.Intn(256))
		in.Imm = 0
		return in
	}
	switch {
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
		in := Inst{
			Op:      Opcode(int(opRaw) % NumOpcodes),
			Mods:    Mods(mods),
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

// unencodable are words no encoder writes: each is a legal instruction's
// word with the one field patched.
var unencodable = []struct {
	name  string
	f     Family
	legal Inst
	patch func(word []byte)
}{
	{"64-bit MOVIH field one past MovihMax", Kepler, Inst{Op: OpMOVIH, Pred: PT, Dst: 4, Src1: RZ, Src2: RZ, Src3: RZ, Imm: MovihMax},
		func(w []byte) { w[7], w[6], w[5] = 0x01, 0, w[5]&0x0f }},
	{"64-bit MOVIH field all ones", Pascal, Inst{Op: OpMOVIH, Pred: PT, Dst: 4, Src1: RZ, Src2: RZ, Src3: RZ},
		func(w []byte) { w[7], w[6], w[5] = 0xff, 0xff, w[5]|0xf0 }},
	{"Volta IMAD with an immediate", Volta, Inst{Op: OpIMAD, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9},
		func(w []byte) { w[8] = 5 }},
	{"Volta FFMA with an immediate", Volta, Inst{Op: OpFFMA, Pred: PT, Dst: 1, Src1: 2, Src2: 3, Src3: 9},
		func(w []byte) { w[15] = 0x80 }},
}

// TestCodecRejectsUnencodable: a word no encoder writes is an illegal
// encoding, not an instruction Encode then refuses.
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
	}
}

// FuzzCodecFixedPoint: for both layouts, any word Decode accepts must Encode,
// and the word Encode writes must decode to the same instruction.
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
			if back, err := c.Decode(again); err != nil || back != in {
				t.Fatalf("%v: % x decodes to %+v, re-encoded % x decodes to %+v (%v)", fam, word[:c.InstBytes()], in, again, back, err)
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
			call := randomInst(r, f)
			for call.HasSrc3() {
				call = randomInst(r, f)
			}
			call.Op, call.Imm = OpCAL, int64(r.Intn(Imm20UMax+1))
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
