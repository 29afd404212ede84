package driver

import (
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// TestBuildCubinAllocBudget: an image is one buffer of its exact size, in
// the style of ptx's TestCompileAllocBudget — no per-function code slice,
// no growth. A warm-cache miss pays this on top of the compile.
func TestBuildCubinAllocBudget(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		pm, err := ptx.Compile("cached", cachedModulePTX, fam)
		if err != nil {
			t.Fatal(err)
		}
		var img []byte
		allocs := testing.AllocsPerRun(20, func() {
			if img, err = BuildCubin(pm, false); err != nil {
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
	pm, err := ptx.Compile("cached", cachedModulePTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 1<<16)
	for i := range long {
		long[i] = 'a'
	}
	for name, edit := range map[string]func(m *ptx.Module){
		"module name":    func(m *ptx.Module) { m.Name = string(long) },
		"function name":  func(m *ptx.Module) { m.Funcs[1].Name = string(long) },
		"predicates":     func(m *ptx.Module) { m.Funcs[0].NumPred = 256 },
		"parameter size": func(m *ptx.Module) { m.Funcs[0].Params[0].Bytes = 256 },
		"relocations":    func(m *ptx.Module) { m.Funcs[0].Relocs = make([]ptx.Reloc, 1<<16) },
	} {
		m := *pm
		m.Funcs = make([]*ptx.Func, len(pm.Funcs))
		for i, f := range pm.Funcs {
			g := *f
			g.Params = append([]ptx.Param(nil), f.Params...)
			m.Funcs[i] = &g
		}
		edit(&m)
		if img, err := BuildCubin(&m, false); err == nil {
			t.Errorf("%s: built a %d-byte image, want an error", name, len(img))
		}
	}
}

// TestCubinModuleRejectsStrayRelocation: a relocation past its function's
// code, which Link would patch out of bounds, is refused when the image is
// decoded.
func TestCubinModuleRejectsStrayRelocation(t *testing.T) {
	pm, err := ptx.Compile("cached", cachedModulePTX, sass.Volta)
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildCubin(pm, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseCubin(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CubinModule(c); err != nil {
		t.Fatal(err)
	}
	f := &c.Funcs[0]
	if len(f.Relocs) == 0 {
		t.Fatal("no relocation to corrupt")
	}
	f.Relocs[0].InstIdx = len(f.Code) / sass.Volta.InstBytes()
	if _, err := CubinModule(c); err == nil {
		t.Fatal("relocation past the function's code accepted")
	}
}
