package driver

import (
	"bytes"
	"slices"
	"testing"

	"nvbitgo/internal/gpu"
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

// FuzzParseCubin hammers the device-binary parser with malformed images:
// they must return an error for garbage, never panic, hang, or allocate
// attacker-controlled amounts of memory. A cached module reaches it from a
// file, so every image the parser accepts goes on to Link on a small
// device: where that succeeds, each function's device bytes are its image
// code except at relocated words, which hold a CAL to the callee, and the
// image itself is left as it was. The seed corpus is real BuildCubin output
// (stripped and unstripped, per family, and a cached module's image) plus
// truncations and header mutations of it.
func FuzzParseCubin(f *testing.F) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		pm, err := Compile("seed", addOnePTX, fam)
		if err != nil {
			f.Fatal(err)
		}
		cached, err := Compile("cached", cachedModulePTX, fam)
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
		if err != nil {
			return
		}
		for _, fn := range c.Funcs {
			if fn.NumRegs < 0 || fn.NumPred < 0 || fn.ParamBytes < 0 || fn.SharedBytes < 0 {
				t.Fatalf("negative metadata: %+v", fn)
			}
		}
		orig := slices.Clone(image)
		cfg := gpu.DefaultConfig(c.Family)
		cfg.NumSMs, cfg.GlobalMemBytes, cfg.CodeBytes = 1, 1<<20, 1<<16
		dev, err := gpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addrs, err := Link(dev, c)
		if err != nil {
			return // a duplicate or unresolved name, or no room on the device
		}
		codec, ib := dev.Codec(), c.Family.InstBytes()
		for i, fn := range c.Funcs {
			callee := map[int]string{}
			for _, r := range fn.Relocs {
				callee[r.InstIdx] = r.Symbol
			}
			got, err := dev.ReadCode(addrs[i], len(fn.Code)/ib)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < len(got); k += ib {
				word := got[k : k+ib]
				sym, ok := callee[k/ib]
				if !ok {
					if !bytes.Equal(word, fn.Code[k:k+ib]) {
						t.Fatalf("%s word %d: device % x, image % x", fn.Name, k/ib, word, fn.Code[k:k+ib])
					}
					continue
				}
				target := addrs[slices.IndexFunc(c.Funcs, func(g CubinFunc) bool { return g.Name == sym })]
				if in, err := codec.Decode(word); err != nil || in.Op != sass.OpCAL || in.Imm != int64(target) {
					t.Fatalf("%s word %d: %+v (%v), want a CAL to %s at %d", fn.Name, k/ib, in, err, sym, target)
				}
			}
		}
		if !bytes.Equal(image, orig) {
			t.Fatal("linking wrote to the image")
		}
	})
}
