package driver

import (
	"slices"
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// TestBuildCubinAllocBudget: an image is one buffer of its exact size, in
// the style of ptx's TestCompileAllocBudget — no per-function code slice,
// no growth. A warm-cache miss pays this on top of the compile.
func TestBuildCubinAllocBudget(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		c, err := Compile("cached", cachedModulePTX, fam)
		if err != nil {
			t.Fatal(err)
		}
		var img []byte
		allocs := testing.AllocsPerRun(20, func() {
			if img, err = BuildCubin(c, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || cap(img) != len(img) {
			t.Errorf("%v: %.1f allocations for a %d-byte image of capacity %d, want 1 of its exact size", fam, allocs, len(img), cap(img))
		}
	}
}

// TestBuildCubinRefusesOverflow: a value wider than its field is refused,
// not truncated into an image that parses back to a different module.
func TestBuildCubinRefusesOverflow(t *testing.T) {
	c, err := Compile("cached", cachedModulePTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 1<<16)
	for i := range long {
		long[i] = 'a'
	}
	for name, edit := range map[string]func(c *Cubin){
		"module name":    func(c *Cubin) { c.Name = string(long) },
		"function name":  func(c *Cubin) { c.Funcs[1].Name = string(long) },
		"predicates":     func(c *Cubin) { c.Funcs[0].NumPred = 256 },
		"parameter size": func(c *Cubin) { c.Funcs[0].Params = []ptx.Param{{Name: "out", Bytes: 256}} },
		"relocations":    func(c *Cubin) { c.Funcs[0].Relocs = make([]ptx.Reloc, 1<<16) },
	} {
		m := *c
		m.Funcs = slices.Clone(c.Funcs)
		edit(&m)
		if img, err := BuildCubin(&m, false); err == nil {
			t.Errorf("%s: built a %d-byte image, want an error", name, len(img))
		}
	}
}

// TestParseCubinRejectsStrayRelocation: a relocation Link could not patch —
// past its function's code, or on a word that is not a CAL — is refused
// when the image is parsed.
func TestParseCubinRejectsStrayRelocation(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		c, err := Compile("cached", cachedModulePTX, fam)
		if err != nil {
			t.Fatal(err)
		}
		img, err := BuildCubin(c, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseCubin(img); err != nil {
			t.Fatal(err)
		}
		f := &c.Funcs[0]
		if first, _ := sass.CodecFor(fam).Decode(f.Code); len(f.Relocs) == 0 || first.Op == sass.OpCAL {
			t.Fatal("want a function with a call and a first word that is not a CAL")
		}
		for name, idx := range map[string]int{
			"past the code": len(f.Code) / fam.InstBytes(),
			"on a non-CAL":  0,
		} {
			m := *c
			m.Funcs = slices.Clone(c.Funcs)
			m.Funcs[0].Relocs = []ptx.Reloc{{InstIdx: idx, Symbol: f.Relocs[0].Symbol}}
			img, err := BuildCubin(&m, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseCubin(img); err == nil {
				t.Errorf("%v: relocation %s accepted", fam, name)
			}
		}
	}
}

// TestLoadLeavesImageUnchanged: loading a device binary patches its calls in
// device memory only. The JIT cache's memory tier hands one image's bytes
// to every load of it, so a second load sees them as the first did and
// patches its own callee address.
func TestLoadLeavesImageUnchanged(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		c, err := Compile("cached", cachedModulePTX, fam)
		if err != nil {
			t.Fatal(err)
		}
		img, err := BuildCubin(c, false)
		if err != nil {
			t.Fatal(err)
		}
		orig := slices.Clone(img)
		ctx, _ := newAPI(t, fam).CtxCreate()
		for range 2 {
			mod, err := ctx.ModuleLoadCubin(img)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(img, orig) {
				t.Fatalf("%v: loading wrote to the image", fam)
			}
			main, _ := mod.GetFunction("main")
			helper, _ := mod.GetFunction("helper")
			raw, err := ctx.Device().ReadCode(main.Addr, main.NumWords)
			if err != nil {
				t.Fatal(err)
			}
			ib := fam.InstBytes()
			call := c.Funcs[0].Relocs[0].InstIdx
			if in, err := sass.CodecFor(fam).Decode(raw[call*ib:]); err != nil || in.Op != sass.OpCAL || in.Imm != int64(helper.Addr) {
				t.Fatalf("%v: call site %+v (%v), want a CAL to helper at %d", fam, in, err, helper.Addr)
			}
		}
	}
}
