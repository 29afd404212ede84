// Compile byte-identity golden: everything ptx.Compile hands the driver and
// the NVBit core — encoded SASS per family plus the per-function metadata —
// is pinned by SHA-256 over every PTX source the tree compiles, so a change
// to the parser or the instruction-selection table must reproduce it bit for
// bit. Same convention as internal/core's TestCodegenGolden: a change meant
// to alter compiled code deletes testdata/compile_golden.txt and re-runs.
package ptx_test

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/emu"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

const compileGoldenPath = "testdata/compile_golden.txt"

var goldenFamilies = []sass.Family{sass.Kepler, sass.Volta}

// source is one named PTX translation unit of the corpus.
type source struct{ name, text string }

// recorder is a driver.Launcher that records every JIT-loaded module and
// skips the launches: the corpus needs what the workloads compile, not what
// they compute.
type recorder struct {
	*driver.Context
	prefix string
	out    *[]source
}

func (r recorder) ModuleLoadPTX(name, src string) (*driver.Module, error) {
	*r.out = append(*r.out, source{r.prefix + name, src})
	return r.Context.ModuleLoadPTX(name, src)
}

func (recorder) LaunchKernel(*driver.Function, gpu.Dim3, gpu.Dim3, int, []byte) error { return nil }

// goLiterals returns the string literals of a Go file that hold a PTX
// module, named after the declaration they sit in. The examples are main
// packages, nvlib never exports its source and mlsuite formats its own, so
// the corpus reads them where they are written.
func goLiterals(t *testing.T, path string) []source {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []source
	collect := func(name string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(text, ".entry") || strings.Contains(text, ".toolfunc") {
				out = append(out, source{filepath.Base(filepath.Dir(path)) + "/" + name, text})
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			collect(d.Name.Name, d)
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					collect(vs.Names[0].Name, vs)
				}
			}
		}
	}
	return out
}

// toolSources returns the PTX a tool registers in AtInit. The tool loader
// keeps it in an unexported field and an accessor in core's export_test.go
// is invisible from this package, so the test reads the field by reflection;
// a rename fails here loudly.
func toolSources(t testing.TB, tool nvbit.Tool) []string {
	t.Helper()
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	srcs := reflect.ValueOf(nv).Elem().FieldByName("loader").Elem().FieldByName("sources")
	if srcs.Kind() != reflect.Slice || srcs.Len() == 0 {
		t.Fatalf("%T registered no tool PTX", tool)
	}
	out := make([]string, srcs.Len())
	for i := range out {
		out[i] = srcs.Index(i).String()
	}
	return out
}

// genKernel writes one kernel of the jit_cold / jit_warm shape (bench/gen.go,
// which this module cannot import): a bounds-checked prologue and a shuffled
// body of global loads and stores, fma, mad, add and setp + forward bra.
func genKernel(rng *rand.Rand, name string, body int) string {
	r := func() string { return fmt.Sprintf("%%r%d", 5+rng.Intn(11)) }
	f := func() string { return fmt.Sprintf("%%f%d", rng.Intn(8)) }
	off := func() int { return 4 * rng.Intn(256) }
	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry %s(.param .u64 data, .param .u32 n)\n{\n", name)
	b.WriteString(`	.reg .u32 %r<16>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<8>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
`)
	type label struct{ id, in int }
	var pending []label
	labels := 0
	for n := 0; n < body; n++ {
		switch k := rng.Intn(19); {
		case k < 3:
			fmt.Fprintf(&b, "\tld.global.%s, [%%rd4+%d];\n", [2]string{"u32 " + r(), "f32 " + f()}[rng.Intn(2)], off())
		case k < 5:
			fmt.Fprintf(&b, "\tst.global.u32 [%%rd4+%d], %s;\n", off(), r())
		case k < 9:
			fmt.Fprintf(&b, "\tfma.rn.f32 %s, %s, %s, %s;\n", f(), f(), f(), f())
		case k < 13:
			fmt.Fprintf(&b, "\tmad.lo.u32 %s, %s, %s, %s;\n", r(), r(), r(), r())
		case k < 16:
			fmt.Fprintf(&b, "\tadd.u32 %s, %s, %s;\n", r(), r(), r())
		case k < 18:
			fmt.Fprintf(&b, "\tadd.f32 %s, %s, %s;\n", f(), f(), f())
		default:
			p := 1 + rng.Intn(2)
			fmt.Fprintf(&b, "\tsetp.lt.u32 %%p%d, %s, %s;\n\t@%%p%d bra L%d;\n", p, r(), r(), p, labels)
			pending = append(pending, label{labels, 1 + rng.Intn(12)})
			labels++
			n++
		}
		kept := pending[:0]
		for _, l := range pending {
			if l.in--; l.in <= 0 {
				fmt.Fprintf(&b, "L%d:\n", l.id)
			} else {
				kept = append(kept, l)
			}
		}
		pending = kept
	}
	for _, l := range pending {
		fmt.Fprintf(&b, "L%d:\n", l.id)
	}
	b.WriteString("\texit;\n}\n")
	return b.String()
}

// corpus gathers every PTX source the tree compiles outside its tests.
func corpus(t *testing.T) []source {
	t.Helper()
	var out []source

	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range specaccel.Benchmarks() {
		if err := b.Run(recorder{ctx, "specaccel/" + b.Name + "/", &out}, specaccel.Small); err != nil {
			t.Fatal(err)
		}
	}
	// mlsuite's prep module is one format string taking the network's
	// swizzle shift at every verb.
	prep := goLiterals(t, "../workloads/mlsuite/mlsuite.go")[0]
	for _, net := range mlsuite.Networks() {
		args := make([]any, strings.Count(prep.text, "%d"))
		for i := range args {
			args[i] = net.Swizzle
		}
		out = append(out, source{prep.name + "/" + net.Name, fmt.Sprintf(prep.text, args...)})
	}
	out = append(out, goLiterals(t, "../workloads/nvlib/nvlib.go")...)
	out = append(out, goLiterals(t, "../experiments/wfft.go")...)
	examples, _ := filepath.Glob("../../examples/*/main.go")
	for _, path := range examples {
		out = append(out, goLiterals(t, path)...)
	}

	for _, name := range registry.Names() {
		for _, pol := range []channel.Policy{channel.Drop, channel.Block} {
			if name == "none" {
				continue // injects nothing
			}
			// A tool without a channel reads no policy: both its rows
			// build it at the default.
			var o registry.Options
			if slices.Contains(registry.ReadsOf(name), "policy") {
				o.Policy = pol.String()
			}
			inst, err := registry.New(name, o)
			if err != nil {
				t.Fatal(err)
			}
			for i, src := range toolSources(t, inst.Tool) {
				out = append(out, source{fmt.Sprintf("tool/%s/%v/%d", name, pol, i), src})
			}
		}
	}
	for i, src := range toolSources(t, emu.New()) {
		out = append(out, source{fmt.Sprintf("tool/emu/%d", i), src})
	}

	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("gk%02d", i)
		out = append(out, source{"gen/" + name, genKernel(rng, name, 50+i*750/39)})
	}
	return out
}

// digests compiles one source for every golden family and returns, per
// function, "<source>:<function> <SHA-256>" over the encoded instructions
// and all the metadata the driver records.
func digests(t *testing.T, src source) []string {
	t.Helper()
	var names []string
	sums := map[string]hash.Hash{}
	for _, fam := range goldenFamilies {
		m, err := ptx.Compile(src.name, src.text, fam)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		for _, f := range m.Funcs {
			h := sums[f.Name]
			if h == nil {
				h = sha256.New()
				sums[f.Name], names = h, append(names, f.Name)
			}
			raw, err := sass.CodecFor(fam).EncodeAll(f.Insts)
			if err != nil {
				t.Fatalf("%s: %s: %v", src.name, f.Name, err)
			}
			fmt.Fprintf(h, "%v %d %x\n", fam, len(raw), raw)
			fmt.Fprintf(h, "%v %d %d %v %d %d %v %q %v\n", f.Entry, f.NumRegs, f.NumPred, f.Params,
				f.ParamBytes, f.SharedBytes, f.Relocs, f.Related, f.Lines)
		}
	}
	for i, name := range names {
		names[i] = fmt.Sprintf("%s:%s %x", src.name, name, sums[name].Sum(nil))
	}
	return names
}

func TestCompileGolden(t *testing.T) {
	var lines []string
	hits := make([]int, ptx.NumRules())
	for _, src := range corpus(t) {
		lines = append(lines, digests(t, src)...)
		ptx.RuleHits(src.text, hits)
	}
	// A row of the table must earn its place: the corpus or a kernel in
	// compile_test.go has to lower through it.
	for _, src := range goLiterals(t, "compile_test.go") {
		if _, err := ptx.Compile(src.name, src.text, sass.Volta); err == nil {
			ptx.RuleHits(src.text, hits)
		}
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("no compiled source exercises %s", ptx.RuleName(i))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile(compileGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(compileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compileGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d digests in %s; run again", len(lines), compileGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	seen := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		seen[l] = true
	}
	diffs := 0
	for _, l := range lines {
		if !seen[l] {
			t.Errorf("compiled output changed or new: %s", l)
			diffs++
		}
	}
	t.Fatalf("%d of %d functions differ from %s (%d recorded)", diffs, len(lines), compileGoldenPath, len(wantLines))
}
