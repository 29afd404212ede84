package driver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// Cubin is the device binary — the analog of a .cubin — and the one thing
// the driver loads (Link): family-specific encoded SASS plus the
// per-function metadata the driver records at load (register/predicate
// budgets, parameter layout, relocations, related functions, and optional
// line tables).
//
// Serialized layout (little-endian):
//
//	magic "NVBC", version byte, family byte
//	name: u16 len + bytes
//	u32 function count, then per function:
//	  name, flags u8 (bit0 entry, bit1 has line table)
//	  u16 numRegs, u8 numPred, u32 paramBytes, u32 sharedBytes
//	  u16 param count    { name, u8 bytes, u32 offset }
//	  u16 reloc count    { u32 instIdx, name }
//	  u16 related count  { name }
//	  u32 line count     { i32 }
//	  u32 code byte count + raw encoded SASS
type Cubin struct {
	Name   string
	Family sass.Family
	Funcs  []CubinFunc
}

// CubinFunc is one function of a device binary: its metadata and its code.
type CubinFunc struct {
	ptx.FuncInfo
	Code []byte // encoded SASS, never written to: it may alias a shared image
}

var cubinMagic = []byte("NVBC")

// CubinVersion is the image format's version byte. ParseCubin accepts this
// version only, and a cache that stores images keys them by it.
const CubinVersion = 1

// Compile is the default Compiler: ptx.Compile, then Assemble.
func Compile(name, src string, family sass.Family) (*Cubin, error) {
	pm, err := ptx.Compile(name, src, family)
	if err != nil {
		return nil, err
	}
	return Assemble(pm)
}

// Assemble encodes a compiled PTX module into the device binary the driver
// loads: each function's code is encoded once, into one buffer the
// functions' Code slices share, and its metadata is carried over.
func Assemble(pm *ptx.Module) (*Cubin, error) {
	codec := sass.CodecFor(pm.Family)
	n := 0
	for _, f := range pm.Funcs {
		n += len(f.Insts)
	}
	code := make([]byte, 0, n*codec.InstBytes())
	c := &Cubin{Name: pm.Name, Family: pm.Family, Funcs: make([]CubinFunc, len(pm.Funcs))}
	for i, f := range pm.Funcs {
		start := len(code)
		var err error
		if code, err = codec.AppendEncode(code, f.Insts); err != nil {
			return nil, fmt.Errorf("driver: cubin %s: encoding %s: %w", pm.Name, f.Name, err)
		}
		c.Funcs[i] = CubinFunc{FuncInfo: f.FuncInfo, Code: code[start:len(code):len(code)]}
	}
	return c, nil
}

// BuildCubin serializes an assembled device binary. Setting strip drops the
// line tables, like building without -lineinfo; the paper's
// Instr::getLineInfo then has nothing to report. The image is written into
// one buffer of its exact size. A module whose metadata does not fit the
// format's field widths (a name past 65 535 bytes, say) is refused rather
// than truncated, so an image always parses back to the module it was
// built from.
func BuildCubin(c *Cubin, strip bool) ([]byte, error) {
	size, err := cubinSize(c, strip)
	if err != nil {
		return nil, fmt.Errorf("driver: cubin %s: %w", c.Name, err)
	}
	b := make([]byte, 0, size)
	b = append(b, cubinMagic...)
	b = append(b, CubinVersion, byte(c.Family))
	b = appendStr(b, c.Name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Funcs)))
	for _, f := range c.Funcs {
		b = appendStr(b, f.Name)
		flags := byte(0)
		if f.Entry {
			flags |= 1
		}
		lines := f.Lines
		if strip {
			lines = nil
		}
		if len(lines) > 0 {
			flags |= 2
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint16(b, uint16(f.NumRegs))
		b = append(b, byte(f.NumPred))
		b = binary.LittleEndian.AppendUint32(b, uint32(f.ParamBytes))
		b = binary.LittleEndian.AppendUint32(b, uint32(f.SharedBytes))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Params)))
		for _, p := range f.Params {
			b = appendStr(b, p.Name)
			b = append(b, byte(p.Bytes))
			b = binary.LittleEndian.AppendUint32(b, uint32(p.Offset))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Relocs)))
		for _, r := range f.Relocs {
			b = binary.LittleEndian.AppendUint32(b, uint32(r.InstIdx))
			b = appendStr(b, r.Symbol)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Related)))
		for _, r := range f.Related {
			b = appendStr(b, r)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(lines)))
		for _, ln := range lines {
			b = binary.LittleEndian.AppendUint32(b, uint32(ln))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Code)))
		b = append(b, f.Code...)
	}
	return b, nil
}

// cubinSize returns the exact length of c's image, or an error naming the
// first function with a value its field cannot hold.
func cubinSize(c *Cubin, strip bool) (int, error) {
	if !fitsField(len(c.Name), math.MaxUint16) {
		return 0, fmt.Errorf("module name of %d bytes does not fit the image format", len(c.Name))
	}
	n := len(cubinMagic) + 2 + 2 + len(c.Name) + 4
	for _, f := range c.Funcs {
		code := len(f.Code)
		n += 2 + len(f.Name) + 1 + 2 + 1 + 4 + 4 + 2 + 2 + 2 + 4 + 4 + code
		ok := fitsField(len(f.Name), math.MaxUint16) &&
			fitsField(f.NumRegs, math.MaxUint16) && fitsField(f.NumPred, math.MaxUint8) &&
			fitsField(f.ParamBytes, math.MaxUint32) && fitsField(f.SharedBytes, math.MaxUint32) &&
			fitsField(len(f.Params), math.MaxUint16) && fitsField(len(f.Relocs), math.MaxUint16) &&
			fitsField(len(f.Related), math.MaxUint16) && fitsField(code, math.MaxUint32)
		for _, p := range f.Params {
			n += 2 + len(p.Name) + 1 + 4
			ok = ok && fitsField(len(p.Name), math.MaxUint16) &&
				fitsField(p.Bytes, math.MaxUint8) && fitsField(p.Offset, math.MaxUint32)
		}
		for _, r := range f.Relocs {
			n += 4 + 2 + len(r.Symbol)
			ok = ok && fitsField(r.InstIdx, math.MaxUint32) && fitsField(len(r.Symbol), math.MaxUint16)
		}
		for _, r := range f.Related {
			n += 2 + len(r)
			ok = ok && fitsField(len(r), math.MaxUint16)
		}
		if !strip {
			n += 4 * len(f.Lines)
			ok = ok && fitsField(len(f.Lines), math.MaxUint32)
		}
		if !ok {
			return 0, fmt.Errorf("function %.64q does not fit the image format", f.Name)
		}
	}
	return n, nil
}

// fitsField reports whether v fits an unsigned field whose largest value is
// limit.
func fitsField(v, limit int) bool { return 0 <= v && v <= limit }

// ParseCubin reads a device binary without decoding its code into
// instructions: each function's Code is a slice of image, not a copy. It
// checks what Link relies on, so a malformed image is refused here: each
// function's code is whole instruction words that all decode, and each
// relocation names a CAL inside its function.
func ParseCubin(image []byte) (*Cubin, error) {
	r := &reader{b: image}
	if !bytes.Equal(r.bytes(4), cubinMagic) {
		return nil, fmt.Errorf("driver: not a cubin image")
	}
	if v := r.u8(); v != CubinVersion {
		return nil, fmt.Errorf("driver: unsupported cubin version %d", v)
	}
	fam := sass.Family(r.u8())
	if fam < sass.Kepler || fam > sass.Volta {
		return nil, fmt.Errorf("driver: cubin has invalid family %d", fam)
	}
	c := &Cubin{Family: fam, Name: r.str()}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		var f CubinFunc
		f.Name = r.str()
		flags := r.u8()
		f.Entry = flags&1 != 0
		f.NumRegs = int(r.u16())
		f.NumPred = int(r.u8())
		f.ParamBytes = int(r.u32())
		f.SharedBytes = int(r.u32())
		np := int(r.u16())
		for k := 0; k < np && r.err == nil; k++ {
			name := r.str()
			bs := int(r.u8())
			off := int(r.u32())
			f.Params = append(f.Params, ptx.Param{Name: name, Bytes: bs, Offset: off})
		}
		nr := int(r.u16())
		for k := 0; k < nr && r.err == nil; k++ {
			idx := int(r.u32())
			f.Relocs = append(f.Relocs, ptx.Reloc{InstIdx: idx, Symbol: r.str()})
		}
		nrel := int(r.u16())
		for k := 0; k < nrel && r.err == nil; k++ {
			f.Related = append(f.Related, r.str())
		}
		// The line table is taken whole, so a count the image cannot back
		// fails before anything is allocated for it.
		if raw := r.bytes(4 * int(r.u32())); r.err == nil && len(raw) > 0 {
			f.Lines = make([]int32, len(raw)/4)
			for k := range f.Lines {
				f.Lines[k] = int32(binary.LittleEndian.Uint32(raw[4*k:]))
			}
		}
		if code := r.bytes(int(r.u32())); r.err == nil {
			f.Code = code[:len(code):len(code)]
		}
		c.Funcs = append(c.Funcs, f)
	}
	if r.err != nil {
		return nil, fmt.Errorf("driver: truncated cubin: %w", r.err)
	}
	codec := sass.CodecFor(fam)
	for i := range c.Funcs {
		if err := checkCode(codec, &c.Funcs[i]); err != nil {
			return nil, fmt.Errorf("driver: cubin %s function %s: %w", c.Name, c.Funcs[i].Name, err)
		}
	}
	return c, nil
}

// checkCode validates one parsed function's code, one word at a time.
func checkCode(codec *sass.Codec, f *CubinFunc) error {
	ib := codec.InstBytes()
	if len(f.Code)%ib != 0 {
		return fmt.Errorf("%d code bytes, not a multiple of %d", len(f.Code), ib)
	}
	for off := 0; off < len(f.Code); off += ib {
		if _, err := codec.Decode(f.Code[off:]); err != nil {
			return fmt.Errorf("at offset %#x: %w", off, err)
		}
	}
	for _, rl := range f.Relocs {
		if rl.InstIdx < 0 || rl.InstIdx >= len(f.Code)/ib {
			return fmt.Errorf("relocation at instruction %d of %d", rl.InstIdx, len(f.Code)/ib)
		}
		if in, _ := codec.Decode(f.Code[rl.InstIdx*ib:]); in.Op != sass.OpCAL {
			return fmt.Errorf("relocation at instruction %d, a %v", rl.InstIdx, in.Op)
		}
	}
	return nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		}
		// Never allocate an attacker-controlled size on the error path: a
		// malformed length field (e.g. a 4 GiB code count) must produce an
		// error, not an out-of-memory. Callers only need fixed-width
		// scratch once r.err is set.
		if n > 8 {
			n = 8
		}
		return make([]byte, n)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte    { return r.bytes(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) str() string { return string(r.bytes(int(r.u16()))) }
