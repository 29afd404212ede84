package ptx_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
)

// FuzzCompile: ptx.Compile faces untrusted bytes (nvbitd's load_ptx feeds it
// from a socket). It must never panic, and whatever it accepts must be
// loadable: every instruction encodes for the family and decodes back to
// itself, branches and relocations stay inside the function, and the
// register budget fits the register file. A tool function's frame, the
// registers a trampoline saves, covers every register its body touches, and
// its body writes no argument register unless it calls or sets a result.
// seedCompile adds the corpus both fuzzers start from.
func seedCompile(f *testing.F) {
	doc, err := os.ReadFile("../../docs/ptx-dialect.md")
	if err != nil {
		f.Fatal(err)
	}
	example := strings.Split(string(doc), "\n```\n")[1]
	f.Add(example)
	// A tool function around a channel reserve/commit fragment.
	memtrace, err := registry.New("memtrace", registry.Options{Policy: "block"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(toolSources(f, memtrace.Tool)[0])
	f.Add(`
.visible .entry main(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	mov.u32 %r0, 20;
	mov.u64 %rd2, 0x100000000;
	call triple, (%r0, %rd2), (%r1);
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
}
.func triple(.param .u32 v, .param .u64 w)
{
	.reg .u32 %t<2>;
	ld.param.u32 %t0, [v];
	mul.lo.u32 %t1, %t0, 3;
	setret.u32 %t1;
	ret;
}
`)
	// A tool function with a loop, a guarded definition and a call.
	f.Add(`
.toolfunc loop(.param .u64 ctr, .param .u32 n)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	.reg .pred %p<2>;
	ld.param.u64 %rd0, [ctr];
	ld.param.u32 %r0, [n];
	mov.u32 %r1, 0;
L:
	call triple, (%r1), (%r2);
	setp.eq.u32 %p1, %r2, 6;
	@%p1 add.u32 %r2, %r2, %r0;
	cvt.u64.u32 %rd1, %r2;
	red.global.add.u64 [%rd0], %rd1;
	add.u32 %r1, %r1, 1;
	setp.lt.u32 %p0, %r1, %r0;
	@%p0 bra L;
	ret;
}
.func triple(.param .u32 v)
{
	.reg .u32 %t<2>;
	ld.param.u32 %t0, [v];
	mul.lo.u32 %t1, %t0, 3;
	setret.u32 %t1;
	ret;
}
`)
}

func FuzzCompile(f *testing.F) {
	seedCompile(f)
	f.Fuzz(func(t *testing.T, src string) {
		for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
			m, err := ptx.Compile("fuzz", src, fam)
			if err != nil {
				continue
			}
			codec := sass.CodecFor(fam)
			for _, fn := range m.Funcs {
				raw, err := codec.EncodeAll(fn.Insts)
				if err != nil {
					t.Fatalf("%v: %s: accepted but does not encode: %v", fam, fn.Name, err)
				}
				back, err := codec.DecodeAll(raw)
				if err != nil || !reflect.DeepEqual(back, fn.Insts) {
					t.Fatalf("%v: %s: decode(encode) differs (%v)\n%s\nvs\n%s", fam, fn.Name, err,
						sass.FormatProgram(fn.Insts), sass.FormatProgram(back))
				}
				for i, in := range fn.Insts {
					if target := i + 1 + int(in.Imm); in.Op == sass.OpBRA && (target < 0 || target >= len(fn.Insts)) {
						t.Fatalf("%v: %s: branch at %d targets %d of %d", fam, fn.Name, i, target, len(fn.Insts))
					}
				}
				for _, rl := range fn.Relocs {
					if rl.InstIdx < 0 || rl.InstIdx >= len(fn.Insts) || fn.Insts[rl.InstIdx].Op != sass.OpCAL {
						t.Fatalf("%v: %s: relocation %+v is not a CAL of the function", fam, fn.Name, rl)
					}
				}
				if fn.NumRegs > sass.NumRegs || len(fn.Lines) != len(fn.Insts) {
					t.Fatalf("%v: %s: NumRegs %d, %d lines for %d instructions", fam, fn.Name, fn.NumRegs, len(fn.Lines), len(fn.Insts))
				}
				if ptx.IsToolFunc(src, fn.Name) {
					calls := slices.ContainsFunc(fn.Insts, func(in sass.Inst) bool { return in.Op == sass.OpCAL })
					checkFrame(t, fam, fn, calls || strings.Contains(src, "setret"))
				}
			}
		}
	})
}

// relayout changes how a source is laid out and nothing else: every run of
// blanks becomes one tab, every line gets a comment and ends in CRLF, and a
// line break follows every comma.
func relayout(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		code, _, _ := strings.Cut(line, "//")
		blank := false
		for i := 0; i < len(code); i++ {
			switch c := code[i]; c {
			case ' ', '\t', '\r':
				blank = true
				continue
			default:
				if blank {
					b.WriteByte('\t')
				}
				blank = false
				if b.WriteByte(c); c == ',' {
					b.WriteString("\r\n")
				}
			}
		}
		b.WriteString("\t// c\r\n")
	}
	return b.String()
}

// FuzzCompileLayout: layout carries no meaning. Whatever compiles compiles to
// the same instructions, budgets and relocations after relayout (the line
// table moves with the lines). The module directives are the one construct a
// line break ends, so sources that have one are left out.
func FuzzCompileLayout(f *testing.F) {
	seedCompile(f)
	f.Add(".visible .entry f { .reg .u32 %r<2>; L: add.u32 %r0,%r1, 0x10 ; @%p0 bra L; }")
	f.Fuzz(func(t *testing.T, src string) {
		for _, dir := range []string{".version", ".target", ".address_size"} {
			if strings.Contains(src, dir) {
				t.Skip()
			}
		}
		for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
			m, err := ptx.Compile("fuzz", src, fam)
			if err != nil {
				continue
			}
			again, err := ptx.Compile("fuzz", relayout(src), fam)
			if err != nil {
				t.Fatalf("%v: accepted, but rejected after relayout: %v\n%q", fam, err, relayout(src))
			}
			if len(again.Funcs) != len(m.Funcs) {
				t.Fatalf("%v: %d functions, %d after relayout", fam, len(m.Funcs), len(again.Funcs))
			}
			for i, fn := range m.Funcs {
				a := again.Funcs[i]
				if !reflect.DeepEqual(fn.Insts, a.Insts) || !reflect.DeepEqual(fn.Relocs, a.Relocs) ||
					fn.NumRegs != a.NumRegs || fn.NumPred != a.NumPred ||
					fn.ParamBytes != a.ParamBytes || fn.SharedBytes != a.SharedBytes {
					t.Fatalf("%v: %s differs after relayout:\n%s\nvs\n%s", fam, fn.Name,
						sass.FormatProgram(fn.Insts), sass.FormatProgram(a.Insts))
				}
			}
		}
	})
}
