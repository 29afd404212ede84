package ptx_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/ptx"
)

// TestCubinRoundTrip: every module the tree compiles — the golden corpus
// (the specaccel benchmarks, nvlib, every registry tool's source, …) and the
// kernels of compile_test.go that compile — comes back from its device
// binary (driver.BuildCubin, ParseCubin, CubinModule) as the module
// ptx.Compile returned, for both families. The JIT cache keeps compiled
// modules that way, so a warm load is this round trip.
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
			img, err := driver.BuildCubin(m, false)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			cm, err := driver.ParseCubin(img)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			back, err := driver.CubinModule(cm)
			if err != nil {
				t.Fatalf("%s on %v: %v", src.name, fam, err)
			}
			if err := sameModule(m, back); err != nil {
				t.Errorf("%s on %v: %v", src.name, fam, err)
			}
			modules++
		}
	}
	t.Logf("%d modules round-tripped", modules)
}

// sameModule reports the first difference between two compiled modules; a
// nil slice and an empty one are the same.
func sameModule(a, b *ptx.Module) error {
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
			{"instructions", slices.Equal(f.Insts, g.Insts)},
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
	pinnedCompilerVersion = 1
	pinnedCompileGolden   = "1ba919ef06d7b4170ce14255e7eff38466b1f8ae6b7d986205ac4955763e10d9"
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
