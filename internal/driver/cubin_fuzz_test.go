package driver

import (
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// cachedModulePTX is a module with a call, so its image has parameters,
// relocations and related functions: the kind the NVBit core's module cache
// stores, unstripped, and reads back from a disk entry.
const cachedModulePTX = `
.visible .entry main(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 1;
	call helper, (%r0), (%r1);
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
	exit;
}
.func helper(.param .u32 v)
{
	.reg .u32 %t<4>;
	ld.param.u32 %t0, [v];
	setret.u32 %t0;
	ret;
}
`

// FuzzParseCubin hammers the device-binary parser, and the decoder behind
// CubinModule, with malformed images: they must return an error for garbage,
// never panic, hang, or allocate attacker-controlled amounts of memory. A
// cached module reaches both from a file, so every image the parser accepts
// goes on to CubinModule. The seed corpus is real BuildCubin output
// (stripped and unstripped, per family, and a cached module's image) plus
// truncations and header mutations of it.
func FuzzParseCubin(f *testing.F) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		pm, err := ptx.Compile("seed", addOnePTX, fam)
		if err != nil {
			f.Fatal(err)
		}
		cached, err := ptx.Compile("cached", cachedModulePTX, fam)
		if err != nil {
			f.Fatal(err)
		}
		img, err := BuildCubin(cached, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		for _, strip := range []bool{false, true} {
			img, err := BuildCubin(pm, strip)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(img)
			// Truncations and a corrupted function count reach the deeper
			// reader paths immediately.
			f.Add(img[:len(img)/2])
			f.Add(img[:8])
			mut := append([]byte(nil), img...)
			mut[10] = 0xff
			mut[11] = 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte(nil))
	f.Add([]byte("NVBC"))
	f.Add([]byte("NVBC\x01\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, image []byte) {
		c, err := ParseCubin(image)
		if err == nil && c == nil {
			t.Fatal("nil cubin without error")
		}
		if err == nil {
			// A successfully parsed image must round-trip through the
			// loader-visible invariants: non-negative sizes everywhere.
			for _, fn := range c.Funcs {
				if fn.NumRegs < 0 || fn.NumPred < 0 || fn.ParamBytes < 0 || fn.SharedBytes < 0 {
					t.Fatalf("negative metadata: %+v", fn)
				}
			}
			pm, err := CubinModule(c)
			if err != nil {
				return
			}
			ib := c.Family.InstBytes()
			for i, fn := range pm.Funcs {
				if len(fn.Insts)*ib != len(c.Funcs[i].Code) {
					t.Fatalf("%s: %d instructions from %d code bytes", fn.Name, len(fn.Insts), len(c.Funcs[i].Code))
				}
				for _, r := range fn.Relocs {
					if r.InstIdx < 0 || r.InstIdx >= len(fn.Insts) {
						t.Fatalf("%s: relocation at instruction %d of %d accepted", fn.Name, r.InstIdx, len(fn.Insts))
					}
				}
			}
		}
	})
}
