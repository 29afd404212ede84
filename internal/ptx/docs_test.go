package ptx

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

const dialectDoc = "../../docs/ptx-dialect.md"

// docBlocks returns the fenced code blocks of the dialect reference under
// one "## " heading.
func docBlocks(t testing.TB, heading string) []string {
	t.Helper()
	data, err := os.ReadFile(dialectDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf("%s: no section %q", dialectDoc, heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	parts := strings.Split(section, "\n```\n")
	var blocks []string
	for i := 1; i < len(parts); i += 2 {
		blocks = append(blocks, parts[i])
	}
	if len(blocks) == 0 {
		t.Fatalf("%s: section %q has no code block", dialectDoc, heading)
	}
	return blocks
}

// expandForm expands a documented pattern — "{a,b}" alternatives and
// "[.x]" optional parts — into the mnemonics it stands for.
func expandForm(p string) []string {
	if i := strings.IndexByte(p, '['); i >= 0 {
		j := i + strings.IndexByte(p[i:], ']')
		return append(expandForm(p[:i]+p[j+1:]), expandForm(p[:i]+p[i+1:j]+p[j+1:])...)
	}
	i := strings.IndexByte(p, '{')
	if i < 0 {
		return []string{p}
	}
	j := i + strings.IndexByte(p[i:], '}')
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandForm(p[:i]+alt+p[j+1:])...)
	}
	return out
}

// forms lists every mnemonic a row accepts.
func (r *rule) forms() []string {
	heads := []string{strings.TrimSuffix(r.op+"."+r.mods, ".")}
	if r.subs != nil {
		heads = nil
		for _, w := range r.subs {
			heads = append(heads, r.op+"."+r.mods+w)
		}
	}
	var out []string
	for _, h := range heads {
		switch {
		case r.types == 0:
			out = append(out, h)
		case r.from == 0:
			for _, t := range typeList(r.types) {
				out = append(out, h+"."+t)
			}
		default:
			for _, t := range typeList(r.types) {
				for _, f := range typeList(r.from) {
					out = append(out, h+"."+t+"."+f)
				}
			}
		}
	}
	return out
}

// sampleOperand writes an operand a slot accepts, in the scaffold of
// TestDialectDoc.
func sampleOperand(k slotKind, wide bool) string {
	switch k {
	case kReg:
		return "%r1"
	case kPair, kFold64:
		return "%rd2"
	case kTyped:
		if wide {
			return "%rd2"
		}
		return "%r1"
	case kTypedVal:
		if wide {
			return "%rd4"
		}
		return "7"
	case kVal, kFold, kFoldNeg, kNegImm64, kAny:
		return "3"
	case kImm:
		return "40"
	case kZero:
		return "0"
	case kPred:
		return "%p0"
	case kSelPred:
		return "!%p1"
	case kGlobal:
		return "[%rd0+8]"
	case kShared:
		return "[smem+4]"
	case kLocal:
		return "[%r3+4]"
	case kParam:
		return "[x]"
	case kLabel:
		return "L"
	case kSym:
		return "callee"
	case kList:
		return "(%r1)"
	}
	panic(fmt.Sprintf("no sample operand for slot kind %d", k))
}

// TestDialectDoc keeps docs/ptx-dialect.md and the rules table equal: every
// form a row accepts is listed in the reference, every listed form is
// accepted, and each compiles with operands of the row's shape.
func TestDialectDoc(t *testing.T) {
	documented := map[string]bool{}
	for _, h := range []string{"Statements", "Memory", "Control flow and warp ops", "NVBit device API"} {
		for _, block := range docBlocks(t, h) {
			for _, line := range strings.Split(block, "\n") {
				if line == "" || line[0] == ' ' || line[0] == '\t' {
					continue // continuation of the comment above
				}
				for _, f := range expandForm(strings.Fields(line)[0]) {
					documented[f] = true
				}
			}
		}
	}

	accepted := map[string]bool{}
	for i := range rules {
		r := &rules[i]
		for _, form := range r.forms() {
			accepted[form] = true
			if !documented[form] {
				t.Errorf("%s is accepted (rules[%d]) but not listed in %s", form, i, dialectDoc)
			}
			_, _, typ, _ := splitMnemonic(form)
			wide := r.wide || typ&tI64 != 0
			var args []string
			for _, s := range r.slots {
				args = append(args, sampleOperand(s.kind, wide))
			}
			stmt := form + " " + strings.Join(args, ", ")
			// A row limited to device functions is tried in one; setret
			// is accepted everywhere but valid only there.
			head, tail := ".visible .entry f(.param .u64 x)", "L: exit;"
			if r.only == inDevice || r.op == "setret" {
				head, tail = ".func f(.param .u64 x)", "L: ret;"
			}
			src := head + ` {
				.reg .u32 %r<4>; .reg .u64 %rd<6>; .reg .pred %p<2>; .shared .b8 smem[16];
				` + stmt + "; " + tail + " }"
			for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
				if _, err := Compile("doc", src, fam); err != nil {
					t.Errorf("%s (%v): %v", stmt, fam, err)
				}
			}
		}
	}
	var stale []string
	for f := range documented {
		if !accepted[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	for _, f := range stale {
		t.Errorf("%s is listed in %s but no row of the rules table accepts it", f, dialectDoc)
	}
}

// TestDialectDocExample: the reference's example module is real code.
func TestDialectDocExample(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		m, err := Compile("example", docBlocks(t, "Module structure")[0], fam)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Funcs) != 3 {
			t.Fatalf("example module has %d functions, want 3", len(m.Funcs))
		}
	}
}
