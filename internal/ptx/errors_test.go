package ptx

import (
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

// TestCompileErrors sweeps the compiler's diagnostic surface: every invalid
// module must be rejected with a message naming the problem.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src string
		want      string // substring of the error
	}{
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
		cases = append(cases, struct{ name, src, want string }{stmt,
			".visible .entry f(.param .u64 x) { .reg .u32 %r<4>; .reg .u64 %rd<4>; .reg .pred %p<2>; .shared .b8 smem[16]; " + stmt + "; }",
			mnem})
	}
	// Memory operands take one base and at most one literal offset.
	for _, m := range []string{"[%rd0 + -8]", "[%rd0+4+4]", "[%rd0+]", "[]", "[%rd0+%r1]", "[smem+x]", "[%rd0", "[a b]"} {
		cases = append(cases, struct{ name, src, want string }{"memory operand " + m,
			".visible .entry f { .reg .u32 %r<4>; .reg .u64 %rd<4>; ld.global.u32 %r0, " + m + "; }",
			"bad memory operand"})
	}
	for _, c := range cases {
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
func TestErrorsCarryLineNumbers(t *testing.T) {
	src := `.visible .entry f
{
	.reg .u32 %r<2>;
	mov.u32 %r0, 1;
	frob.u32 %r0, %r1;
	exit;
}`
	_, err := Compile("bad", src, sass.Volta)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %v does not carry the offending line", err)
	}
}
