package ptx_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// TestCubinRoundTrip: every module the tree compiles — the golden corpus
// (the specaccel benchmarks, nvlib, every registry tool's source, …) and the
// kernels of compile_test.go that compile — links from its device binary
// (driver.Assemble, BuildCubin, ParseCubin) to the same device code as from
// a fresh compile, for both families, and that code decodes to what
// ptx.Compile returned with each call's target set to its callee's load
// address. The JIT cache keeps compiled modules that way, so a warm load is
// this round trip.
func TestCubinRoundTrip(t *testing.T) {
	srcs := corpus(t)
	corpusLen := len(srcs)
	srcs = append(srcs, goLiterals(t, "compile_test.go")...)
	modules := 0
	for i, src := range srcs {
		for _, fam := range goldenFamilies {
			m, err := ptx.Compile(src.name, src.text, fam)
			if err != nil {
				if i < corpusLen {
					t.Fatalf("%s: %v", src.name, err)
				}
				continue // a kernel compile_test.go expects refused
			}
			fresh, err := driver.Assemble(m)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			img, err := driver.BuildCubin(fresh, false)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			back, err := driver.ParseCubin(img)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			if err := sameMetadata(m, back); err != nil {
				t.Errorf("%s on %v: %v", src.name, fam, err)
			}
			want, addrs, err := linkedCode(fresh)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			got, _, err := linkedCode(back)
			if err != nil {
				t.Fatalf("%s on %v: from the image: %v", src.name, fam, err)
			}
			if !slices.EqualFunc(want, got, slices.Equal) {
				t.Errorf("%s on %v: device code linked from the image differs from a fresh compile's", src.name, fam)
			}
			for k, f := range m.Funcs {
				ref := slices.Clone(f.Insts)
				for _, r := range f.Relocs {
					callee := slices.IndexFunc(m.Funcs, func(g *ptx.Func) bool { return g.Name == r.Symbol })
					ref[r.InstIdx].Imm = int64(addrs[callee])
				}
				if insts, err := sass.CodecFor(fam).DecodeAll(want[k]); err != nil || !slices.Equal(insts, ref) {
					t.Errorf("%s on %v: function %s's linked code does not decode to the compiled one (%v)", src.name, fam, f.Name, err)
				}
			}
			modules++
		}
	}
	t.Logf("%d modules round-tripped", modules)
}

// linkedCode links c onto a fresh device and returns each function's code
// as the device holds it, and its load address.
func linkedCode(c *driver.Cubin) ([][]byte, []gpu.CodeAddr, error) {
	cfg := gpu.DefaultConfig(c.Family)
	cfg.NumSMs, cfg.GlobalMemBytes = 1, 1<<20
	dev, err := gpu.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	addrs, err := driver.Link(dev, c)
	if err != nil {
		return nil, nil, err
	}
	code := make([][]byte, len(c.Funcs))
	for i, f := range c.Funcs {
		if code[i], err = dev.ReadCode(addrs[i], len(f.Code)/c.Family.InstBytes()); err != nil {
			return nil, nil, err
		}
	}
	return code, addrs, nil
}

// sameMetadata reports the first difference between a compiled module and
// the device binary parsed back from its image; a nil slice and an empty
// one are the same.
func sameMetadata(a *ptx.Module, b *driver.Cubin) error {
	if a.Name != b.Name || a.Family != b.Family || len(a.Funcs) != len(b.Funcs) {
		return fmt.Errorf("module %s/%v with %d functions came back as %s/%v with %d", a.Name, a.Family, len(a.Funcs), b.Name, b.Family, len(b.Funcs))
	}
	for i, f := range a.Funcs {
		g := b.Funcs[i]
		for _, c := range []struct {
			what string
			same bool
		}{
			{"name", f.Name == g.Name},
			{"entry flag", f.Entry == g.Entry},
			{"code size", len(f.Insts)*a.Family.InstBytes() == len(g.Code)},
			{"register count", f.NumRegs == g.NumRegs},
			{"predicate count", f.NumPred == g.NumPred},
			{"parameters", slices.Equal(f.Params, g.Params)},
			{"parameter bytes", f.ParamBytes == g.ParamBytes},
			{"shared bytes", f.SharedBytes == g.SharedBytes},
			{"relocations", slices.Equal(f.Relocs, g.Relocs)},
			{"related functions", slices.Equal(f.Related, g.Related)},
			{"line table", slices.Equal(f.Lines, g.Lines)},
		} {
			if !c.same {
				return fmt.Errorf("function %s: %s differ", f.Name, c.what)
			}
		}
	}
	return nil
}

// The compile golden as recorded under pinnedCompilerVersion. A compile
// cache keys modules by ptx.CompilerVersion, so a change that re-records
// testdata/compile_golden.txt — compiled code moved — must come with a new
// version, or a warm cache would serve the old compiler's code. Both
// constants are then replaced: the new version and the new file's SHA-256.
// A row that moved because its source changed (a tool's PTX) takes a new
// version too; that costs every cache one compile per module.
const (
	pinnedCompilerVersion = 3
	pinnedCompileGolden   = "323be5223959bf21122dfbd389aae621ff85c2c9da7ab73dc961c90eee0723b4"
)

func TestCompilerVersionPinsGolden(t *testing.T) {
	golden, err := os.ReadFile(compileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(golden))
	if ptx.CompilerVersion != pinnedCompilerVersion || sum != pinnedCompileGolden {
		t.Fatalf("%s has SHA-256 %s under CompilerVersion %d; pinned: %s under %d. "+
			"Compiled code that changed needs a new CompilerVersion; then pin it with the file's SHA-256",
			compileGoldenPath, sum, ptx.CompilerVersion, pinnedCompileGolden, pinnedCompilerVersion)
	}
}
