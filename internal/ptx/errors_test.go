package ptx

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

type errorCase struct {
	name, src string
	want      string // substring of the error
}

// errorCases is the compiler's diagnostic surface: invalid modules, each with
// a word its rejection must contain.
func errorCases() []errorCase {
	cases := []errorCase{
		{"too many predicates",
			".visible .entry f { .reg .pred %p<9>; exit; }",
			"predicate"},
		{"register exhaustion",
			".visible .entry f { .reg .u64 %rd<200>; exit; }",
			"out of registers"},
		{"setret in entry",
			".visible .entry f { .reg .u32 %r<2>; setret.u32 %r0; }",
			"setret in a kernel"},
		{"unknown label",
			".visible .entry f { .reg .u32 %r<2>; bra FOO; }",
			"undefined label"},
		{"unknown instruction",
			".visible .entry f { .reg .u32 %r<2>; zap.u32 %r0, %r1; }",
			"unsupported instruction"},
		{"undeclared register",
			".visible .entry f { .reg .u32 %r<2>; mov.u32 %q9, 1; }",
			"undeclared register"},
		{"width mismatch 32 as 64",
			".visible .entry f { .reg .u32 %r<2>; .reg .u64 %rd<2>; mov.u64 %rd0, %rd1; add.u64 %rd0, %rd0, %rd1; mov.u64 %r0, 1; }",
			"64-bit"},
		{"width mismatch 64 as 32",
			".visible .entry f { .reg .u64 %rd<2>; mov.u32 %rd0, 1; }",
			"32-bit"},
		{"duplicate register family",
			".visible .entry f { .reg .u32 %r<2>; .reg .u32 %r<2>; exit; }",
			"redeclared"},
		{"duplicate label",
			".visible .entry f { .reg .u32 %r<2>; L: mov.u32 %r0, 1; L: exit; }",
			"duplicate label"},
		{"bad parameter type",
			".visible .entry f(.param .v4 x) { exit; }",
			"unsupported parameter type"},
		{"statement outside function",
			"mov.u32 %r0, 1;",
			"outside a function"},
		{"unterminated function",
			".visible .entry f { .reg .u32 %r<2>;",
			"unterminated"},
		{"too many call args",
			`.visible .entry f { .reg .u32 %a<14>;
			   call g, (%a0,%a1,%a2,%a3,%a4,%a5,%a6,%a7,%a8,%a9,%a10,%a11,%a12); }`,
			"too many argument registers"},
		{"nested function",
			".visible .entry f { .visible .entry g { exit; } exit; }",
			"nested"},
		{"empty module", "   ", "no functions"},
		{"bad shared decl",
			".visible .entry f { .shared .b32 s[4]; exit; }",
			".shared .b8"},
		{"vote negated source",
			".visible .entry f { .reg .u32 %r<2>; .reg .pred %p<2>; vote.ballot.b32 %r0, !%p0; }",
			"negated source"},
		{"unknown shared symbol",
			".visible .entry f { .reg .u32 %r<2>; ld.shared.u32 %r0, [nosuch]; }",
			"unknown shared symbol"},
		{"unknown param",
			".visible .entry f { .reg .u32 %r<2>; ld.param.u32 %r0, [ghost]; }",
			"unknown parameter"},
		{"offset into a register parameter",
			".func f(.param .u64 x) { .reg .u32 %r<2>; ld.param.u32 %r0, [x+4]; }",
			"register parameter"},
		{"immediate the family cannot encode",
			".visible .entry f { .reg .u32 %r<2>; .reg .u64 %rd<2>; ld.global.u32 %r0, [%rd0+99999999]; }",
			"out of range"},
		{"negated setp destination",
			".visible .entry f { .reg .u32 %r<2>; .reg .pred %p<2>; setp.eq.u32 !%p0, %r0, %r1; }",
			"negated destination"},
		{"operand count",
			".visible .entry f { .reg .u32 %r<2>; add.u32 %r0, %r1; }",
			"add.u32: want r32, r32, r32|imm"},
		{"call argument list",
			".visible .entry f { .reg .u32 %r<2>; call g, %r0; }",
			"call: want"},
		{"call with two results",
			".visible .entry f { .reg .u32 %r<2>; call g, (%r0), (%r0, %r1); }",
			"exactly one return value"},
		{"bad guard",
			".visible .entry f { .reg .u32 %r<2>; @5 exit; }",
			"bad guard"},
		{"guard of the wrong class",
			".visible .entry f { .reg .u32 %r<2>; @%r0 exit; }",
			"predicate is required"},
	}
	// Forms the ISA cannot express: each is rejected by name instead of being
	// lowered to something else (a 4-byte access, a logical shift, a signed
	// 32-bit compare, ...).
	for _, stmt := range []string{
		"ld.global.u8 %r0, [%rd0]", "ld.global.u16 %r0, [%rd0]", "ld.shared.s8 %r0, [%r1]",
		"ld.param.f64 %rd0, [x]", "st.global.u8 [%rd0], %r0", "st.global.s16 [%rd0], %r0",
		"st.shared.b8 [%r1], %r0", "st.global.b16 [%rd0], %r0", "st.global.f64 [%rd0], %rd2",
		"mov.u16 %r0, 1", "mov.f64 %rd0, %rd2", "atom.global.add.u16 %r0, [%rd0], %r1",
		"atom.global.add.f64 %rd2, [%rd0], %rd2", "red.global.add.u8 [%rd0], %r0",
		"setp.lt.u64 %p0, %r0, %r1", "setp.eq.s64 %p0, %rd0, %rd2", "selp.b64 %rd0, %rd0, %rd2, %p0",
		"shfl.bfly.b64 %rd0, %rd2, 1", "popc.b64 %r0, %rd0",
		"shr.s32 %r0, %r0, 1", "cvt.s64.s32 %rd0, %r0", "cvt.u64.s32 %rd0, %r0",
		"mul.wide.s32 %rd0, %r0, %r1", "mad.wide.s32 %rd0, %r0, %r1, %rd2",
		"and.f32 %r0, %r0, %r1", "or.f32 %r0, %r0, %r1", "xor.f32 %r0, %r0, %r1", "not.f32 %r0, %r1",
		"shl.f32 %r0, %r0, 1", "shr.f32 %r0, %r0, 1",
		"atom.global.and.f32 %r0, [%rd0], %r1", "atom.global.or.f32 %r0, [%rd0], %r1",
		"red.global.xor.f32 [%rd0], %r0", "atom.global.min.s32 %r0, [%rd0], %r1",
		"match.any.f64 %r0, %rd0", "match.any.u32 %r0, %r1", "match.all.b32 %r0, %r1",
		"mad.hi.f32 %r0, %r0, %r1, %r1", "div.u32.f32 %r0, %r0, %r1", "div.f32 %r0, %r0, %r1",
		"wfft32.anything %r0, %r1", "wfft32 %r0, %r1", "rdreg.b64 %r0, %r1", "rcp %r0, %r1", "popc %r0, %r1",
		"shl %r0, %r0, 1", "and %r0, %r0, %r1", "setp.lt.b32 %p0, %r0, %r1", "setp.zz.u32 %p0, %r0, %r1",
		"exit %r0", "ret %r0", "bar.sync 0, 1, 2, 3", "bar.sync 1", "bar.sync", "bar",
		"sub.u64 %rd0, %rd0, %rd2", "add.u32 %r0, %r0, [%rd0]", "add.u32 %r0, %tid.x, 1", "bra %r0",
		"ld.global.u32 %r0, [smem]", "ld.local.u32 %r0, [smem]", "st.global.u32 [%r0], %r1",
	} {
		mnem, _, _ := strings.Cut(stmt, " ")
		cases = append(cases, errorCase{stmt,
			".visible .entry f(.param .u64 x) { .reg .u32 %r<4>; .reg .u64 %rd<4>; .reg .pred %p<2>; .shared .b8 smem[16]; " + stmt + "; }",
			mnem})
	}
	// Memory operands take one base and at most one literal offset.
	for _, m := range []string{"[%rd0 + -8]", "[%rd0+4+4]", "[%rd0+]", "[]", "[%rd0+%r1]", "[smem+x]", "[%rd0", "[a b]"} {
		cases = append(cases, errorCase{"memory operand " + m,
			".visible .entry f { .reg .u32 %r<4>; .reg .u64 %rd<4>; ld.global.u32 %r0, " + m + "; }",
			"bad memory operand"})
	}
	return cases
}

// TestCompileErrors: every invalid module must be rejected with a message
// naming the problem.
func TestCompileErrors(t *testing.T) {
	for _, c := range append(errorCases(), literalCases()...) {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("bad", c.src, sass.Kepler)
			if err == nil {
				t.Fatalf("accepted invalid module:\n%s", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestErrorsCarryLineNumbers: diagnostics must point at the offending line.
const lineNumberSrc = `.visible .entry f
{
	.reg .u32 %r<2>;
	mov.u32 %r0, 1;
	frob.u32 %r0, %r1;
	exit;
}`

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Compile("bad", lineNumberSrc, sass.Volta)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %v does not carry the offending line", err)
	}
}

// lexicalCases are sources that differ in layout, not in statements: where a
// statement may break, what may share a line, which characters end what.
// Each is either accepted or rejected; errors_golden.txt pins which, and the
// exact diagnostic or compiled code.
func lexicalCases() []errorCase {
	k := func(body string) string {
		return ".visible .entry f(.param .u64 x)\n{\n\t.reg .u32 %r<4>;\n\t.reg .u64 %rd<4>;\n" +
			"\t.reg .pred %p<2>;\n\t.shared .b8 smem[16];\n" + body + "}\n"
	}
	cases := []errorCase{
		{name: "statement over three lines", src: k("\tadd.u32\n\t\t%r0,\n\t\t%r1, 1;\n\texit;\n")},
		{name: "error in a statement over three lines", src: k("\tadd.u32\n\t\t%r0,\n\t\t%q1, 1;\n\texit;\n")},
		{name: "bad operand in a statement over three lines", src: k("\tadd.u32\n\t\t%r0,\n\t\t%r1, [;\n")},
		{name: "comment inside a statement", src: k("\tadd.u32 %r0, // dst\n\t\t%r1, 2; // done\n")},
		{name: "comment hides terminators", src: k("\tadd.u32 %r0, %r1, 2; // ; } { L:\n")},
		{name: "missing ';' quotes the joined text", src: k("\tadd.u32 %r0, // c\n\t\t%r1, 2\n")},
		{name: "CRLF", src: strings.ReplaceAll(k("\tadd.u32 %r0, %r1, 2;\nL:\n\t@%p0 bra L;\n"), "\n", "\r\n")},
		{name: "CRLF inside a statement", src: k("\tadd.u32 %r0,\r\n\t\t%r1, 2;\r\n")},
		{name: "label and statement on one line", src: k("L: add.u32 %r0, %r1, 2; M: N: bra L;\n")},
		{name: "two statements on one line", src: k("\tadd.u32 %r0, %r1, 2; add.u32 %r1, %r0, 3;\n")},
		{name: "empty statements", src: k("\t;; add.u32 %r0, %r1, 2;;\n;\n")},
		{name: "trailing comma", src: k("\tadd.u32 %r0, %r1, ;\n")},
		{name: "leading comma", src: k("\tadd.u32 , %r0, %r1;\n")},
		{name: "two guards", src: k("\t@%p0 @%p1 exit;\n")},
		{name: "guard alone", src: k("\t@%p0;\n")},
		{name: "negated guard, tabs between tokens", src: k("\t@!%p1\tadd.u32\t%r0,\t%r1,\t2;\n")},
		{name: ".reg after first use", src: ".visible .entry f\n{\n\tmov.u32 %a0, 1;\n\t.reg .u32 %b;\n\tmov.u32 %b, %a1;\n\t.reg .u32 %a<2>;\n}\n"},
		{name: ".shared after first use", src: ".visible .entry f\n{\n\t.reg .u32 %r<2>;\n\tld.shared.u32 %r0, [t+4];\n\t.shared .b8 s[12];\n\t.shared .b8 t[8];\n\tmov.u32 %r1, t;\n}\n"},
		{name: "two functions", src: ".func g(.param .u32 v)\n{\n\t.reg .u32 %r<2>;\n\tld.param.u32 %r0, [v];\n\tsetret.u32 %r0;\n}\n" +
			".visible .entry f\n{\n\t.reg .u32 %r<2>;\nL:\n\tcall g, (%r0), (%r1);\n\tbra L;\n}\n"},
		{name: "error in the second function", src: ".func g { ret; }\n.visible .entry f\n{\n\t.reg .u32 %r<2>;\n\tfrob %r0;\n}\n"},
		{name: "parse error after a compile error", src: ".visible .entry f { frob; }\n.func g { ret }\n"},
		{name: "stray '}'", src: k("\texit;\n") + "}\n"},
		{name: "missing ';' before '}'", src: k("\tadd.u32 %r0, %r1, 2;\n\texit\n")},
		{name: "'{' outside a header", src: "{ exit; }\n"},
		{name: "second '{'", src: ".visible .entry f { { exit; } }\n"},
		{name: "trailing tokens", src: k("\texit;\n") + "exit\n"},
		{name: "directives end at the line", src: ".version 1.0\n.target sm_70 // c\n.address_size 64\n" + k("\texit;\n")},
		{name: "directive with ';'", src: ".version 1.0; .target sm_70;\n" + k("\texit;\n")},
		{name: "directive inside a body", src: k("\t.target sm_70\n\texit;\n")},
		{name: "header over several lines", src: ".visible\n.entry\nf(\n\t.param .u64 x, // first\n\t.param\t.u32 n\n)\n{\n\t.reg .u32 %r<2>;\n\tld.param.u32 %r0, [n];\n}\n"},
		{name: "header without .visible, name glued to '{'", src: ".entry f{exit;}"},
		{name: "missing function name", src: ".visible .entry { exit; }"},
		{name: "missing function name before params", src: ".visible .entry (.param .u32 n) { exit; }"},
		{name: "unterminated parameter list", src: ".visible .entry f(.param .u32 n { exit; }"},
		{name: "bad parameter", src: ".visible .entry f(.param .u32) { exit; }"},
		{name: "header of an unknown kind", src: ".visible .kernel f { exit; }"},
		{name: "label with a dot", src: k("a.b: exit;\n")},
		{name: "empty label", src: k("\t: exit;\n")},
		{name: "label outside a function", src: "L: exit;\n"},
		{name: "label at the end", src: k("\t@%p0 bra END;\n\tadd.u32 %r0, %r1, 2;\nEND:\n")},
		{name: "register declaration with four fields", src: k("\t.reg .u32 %a %b;\n")},
		{name: "register family without '>'", src: k("\t.reg .u32 %a<4;\n")},
		{name: "register family of zero", src: k("\t.reg .u32 %a<0>;\n")},
		{name: "register family of 257", src: k("\t.reg .u32 %a<257>;\n")},
		{name: "register family of 256", src: ".visible .entry f { .reg .pred %q<256>; exit; }"},
		{name: "register family without a count", src: k("\t.reg .u32 %a<>;\n")},
		{name: "register of an unknown type", src: k("\t.reg .f64 %a;\n")},
		{name: "register name without '%'", src: k("\t.reg .u32 a;\n")},
		{name: "single register redeclared by a family", src: k("\t.reg .u32 %a3;\n\t.reg .u32 %a<4>;\n")},
		{name: "family member redeclared through a longer prefix", src: k("\t.reg .u32 %a<16>;\n\t.reg .u32 %a1<2>;\n")},
		{name: "families whose prefixes nest without meeting", src: k("\t.reg .u32 %a<10>;\n\t.reg .u32 %a1<2>;\n\tadd.u32 %a10, %a9, %a11;\n")},
		{name: "family member with a leading zero", src: k("\tadd.u32 %r01, %r1, 2;\n")},
		{name: "family member past the count", src: k("\tadd.u32 %r4, %r1, 2;\n")},
		{name: "shared array without ']'", src: k("\t.shared .b8 t[8;\n")},
		{name: "shared array of zero", src: k("\t.shared .b8 t[0];\n")},
		{name: "shared array without a size", src: k("\t.shared .b8 t[];\n")},
		{name: "shared arrays are 8-byte aligned", src: k("\t.shared .b8 t[3];\n\t.shared .b8 u[5];\n\tmov.u32 %r0, u;\n\tst.shared.u32 [u+4], %r0;\n")},
		{name: "integer literals", src: k("\tadd.u32 %r0, %r1, 0x1F;\n\tadd.u32 %r0, %r1, 0X1f;\n\tadd.u32 %r0, %r1, -7;\n\tadd.u32 %r0, %r1, +7;\n" +
			"\tadd.u32 %r0, %r1, 017;\n\tadd.u32 %r0, %r1, 0b101;\n\tmov.u64 %rd0, 0xffffffffffffffff;\n\tmov.u64 %rd2, -0x8000000000000000;\n")},
		{name: "float literals", src: k("\tadd.f32 %r0, %r1, 1.5;\n\tadd.f32 %r0, %r1, .5;\n\tadd.f32 %r0, %r1, -2.5e-1;\n\tadd.f32 %r0, %r1, 1e3;\n" +
			"\tadd.f32 %r0, %r1, 0F3f800000;\n\tadd.f32 %r0, %r1, 0fBF800000;\n")},
		{name: "integer literal past 64 bits", src: k("\tmov.u64 %rd0, 0x10000000000000000;\n")},
		{name: "hex literal without digits", src: k("\tadd.u32 %r0, %r1, 0x;\n")},
		{name: "decimal literal with a letter", src: k("\tadd.u32 %r0, %r1, 12a;\n")},
		{name: "sign alone", src: k("\tadd.u32 %r0, %r1, -;\n")},
		{name: "hex float of nine digits", src: k("\tadd.f32 %r0, %r1, 0F3f8000000;\n")},
		{name: "memory operand forms", src: k("\tld.global.u32 %r0, [ %rd0 + 8 ];\n\tld.global.u32 %r0, [%rd0-0x10];\n\tld.shared.u32 %r0, [smem-4];\n" +
			"\tld.shared.u32 %r0, [8];\n\tld.shared.u32 %r0, [0x10+4];\n\tld.shared.u32 %r0, [-8];\n\tld.shared.u32 %r0, [%r1\t+\t4];\n")},
		{name: "memory operand with a signed offset", src: k("\tld.global.u32 %r0, [%rd0+-8];\n")},
		{name: "memory operand with text after ']'", src: k("\tld.global.u32 %r0, [%rd0] x;\n")},
		{name: "register operands", src: k("\tadd.u32 %r0, %, 1;\n")},
		{name: "negated non-register", src: k("\tadd.u32 %r0, !x, 1;\n")},
		{name: "negated register where a value is wanted", src: k("\tadd.u32 %r0, !%r1, 1;\n")},
		{name: "negated special register", src: k("\tmov.u32 %r0, !%tid.x;\n")},
		{name: "special registers", src: k("\tmov.u32 %r0, %tid.y;\n\tmov.u32 %r1, %nctaid.z;\n\tmov.u32 %r2, %laneid;\n\tmov.u32 %r3, %clock;\n")},
		{name: "unknown special register", src: k("\tmov.u32 %r0, %tid.w;\n")},
		{name: "call lists", src: k("\tcall g;\n\tcall g, ();\n\tcall g, ( %r0 , 5 ), ( %r1 );\n\tcall g, (%rd0,\n\t\t%r2);\n")},
		{name: "nested call list", src: k("\tcall g, ((%r0));\n")},
		{name: "unclosed call list", src: k("\tcall g, (%r0;\n")},
		{name: "list where a register is wanted", src: k("\tadd.u32 %r0, (%r1), 1;\n")},
		{name: "mnemonic with an empty modifier", src: k("\tadd..u32 %r0, %r1, 1;\n")},
		{name: "mnemonic ending in a dot", src: k("\tadd.u32. %r0, %r1, 1;\n")},
		{name: "mnemonic of three types", src: k("\tcvt.u32.u32.f32 %r0, %r1;\n")},
		{name: "mnemonic that is only a dot", src: k("\t. %r0;\n")},
	}
	// Literal forms a prefix scan or Go's grammar used to let through.
	for _, c := range literalCases() {
		cases = append(cases, errorCase{name: c.name, src: c.src})
	}
	return cases
}

// literalCases: numeric literals follow PTX's grammar, not Go's and not a
// prefix of it.
func literalCases() []errorCase {
	one := func(stmt string) string {
		return ".visible .entry f { .reg .u32 %r<2>; .reg .u64 %rd<2>; " + stmt + "; }"
	}
	return []errorCase{
		{"family count with a suffix", ".visible .entry f { .reg .u32 %r<4x>; exit; }", "bad register family count"},
		{"family count with a sign", ".visible .entry f { .reg .u32 %r<+4>; exit; }", "bad register family count"},
		{"shared size with a suffix", ".visible .entry f { .shared .b8 buf[16junk]; exit; }", "bad shared size"},
		{"immediate with a digit separator", one("add.u32 %r0, %r1, 1_0"), "bad operand"},
		{"immediate in Go's octal", one("add.u32 %r0, %r1, 0o17"), "bad operand"},
		{"offset with a digit separator", one("ld.global.u32 %r0, [%rd0+1_6]"), "bad memory operand"},
		{"hex float of three digits", one("add.f32 %r0, %r1, 0F3f8"), "bad operand"},
	}
}

const errorsGoldenPath = "testdata/errors_golden.txt"

// TestErrorsGolden pins every diagnostic in full, and for the accepted layout
// cases the compiled result: a parser change must reproduce the file byte for
// byte. A change meant to alter a diagnostic deletes the file and re-runs.
func TestErrorsGolden(t *testing.T) {
	var cases []errorCase
	for _, c := range errorCases() {
		cases = append(cases, errorCase{name: "errors/" + c.name, src: c.src})
	}
	for i, src := range parserErrorCases {
		cases = append(cases, errorCase{name: fmt.Sprintf("parser/%d", i), src: src})
	}
	cases = append(cases, errorCase{name: "lines", src: lineNumberSrc})
	for _, c := range lexicalCases() {
		cases = append(cases, errorCase{name: "lexical/" + c.name, src: c.src})
	}
	var b strings.Builder
	for _, c := range cases {
		for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
			fmt.Fprintf(&b, "%s [%v] %s\n", c.name, fam, outcome(t, c.src, fam))
		}
	}
	got := b.String()
	want, err := os.ReadFile(errorsGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(errorsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d outcomes in %s; run again", 2*len(cases), errorsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d outcomes, %s records %d", len(gotLines)-1, errorsGoldenPath, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("outcome changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// outcome is a source's quoted diagnostic, or the SHA-256 of everything it
// compiles to: encoded instructions and the metadata the driver records.
func outcome(t *testing.T, src string, fam sass.Family) string {
	t.Helper()
	m, err := Compile("m", src, fam)
	if err != nil {
		return fmt.Sprintf("error %q", err)
	}
	h := sha256.New()
	for _, f := range m.Funcs {
		raw, err := sass.CodecFor(fam).EncodeAll(f.Insts)
		if err != nil {
			t.Fatalf("%s: accepted but does not encode: %v", f.Name, err)
		}
		fmt.Fprintf(h, "%s %x %v %d %d %v %d %d %v %q %v\n", f.Name, raw, f.Entry, f.NumRegs, f.NumPred,
			f.Params, f.ParamBytes, f.SharedBytes, f.Relocs, f.Related, f.Lines)
	}
	return fmt.Sprintf("ok %x", h.Sum(nil))
}
