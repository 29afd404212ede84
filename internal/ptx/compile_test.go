package ptx

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// loadModule is a minimal loader for tests: place every function in code
// space and patch CAL relocations (the real loader lives in internal/driver).
func loadModule(t *testing.T, d *gpu.Device, m *Module) map[string]gpu.CodeAddr {
	t.Helper()
	addrs := make(map[string]gpu.CodeAddr)
	for _, f := range m.Funcs {
		base, err := d.AllocCode(len(f.Insts))
		if err != nil {
			t.Fatal(err)
		}
		addrs[f.Name] = base
	}
	for _, f := range m.Funcs {
		insts := append([]sass.Inst(nil), f.Insts...)
		for _, rl := range f.Relocs {
			target, ok := addrs[rl.Symbol]
			if !ok {
				t.Fatalf("unresolved symbol %q", rl.Symbol)
			}
			insts[rl.InstIdx].Imm = int64(target)
		}
		raw, err := d.Codec().EncodeAll(insts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteCode(addrs[f.Name], raw); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

func mustCompile(t *testing.T, src string, f sass.Family) *Module {
	t.Helper()
	m, err := Compile("test", src, f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// funcNamed returns the module's function with the given name.
func funcNamed(t *testing.T, m *Module, name string) *Func {
	t.Helper()
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("module has no function %s", name)
	return nil
}

func newDev(t *testing.T, f sass.Family) *gpu.Device {
	t.Helper()
	d, err := gpu.New(gpu.DefaultConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, d *gpu.Device, entry gpu.CodeAddr, grid, block gpu.Dim3, params []byte, shared int) gpu.Stats {
	t.Helper()
	st, err := d.Launch(gpu.LaunchSpec{Entry: entry, Grid: grid, Block: block, Params: params, SharedBytes: shared})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const saxpyPTX = `
.version 1.0
.visible .entry saxpy(.param .u64 x, .param .u64 y, .param .f32 a, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [x];
	ld.param.u64 %rd2, [y];
	mul.wide.u32 %rd4, %r3, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd2];
	ld.param.f32 %f2, [a];
	fma.rn.f32 %f1, %f2, %f0, %f1;
	st.global.f32 [%rd2], %f1;
	exit;
}
`

func TestSaxpyEndToEnd(t *testing.T) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Maxwell, sass.Pascal, sass.Volta} {
		t.Run(fam.String(), func(t *testing.T) {
			m := mustCompile(t, saxpyPTX, fam)
			f := m.Funcs[0]
			if !f.Entry || f.Name != "saxpy" {
				t.Fatalf("bad function metadata: %+v", f)
			}
			if f.ParamBytes != 24 {
				t.Fatalf("ParamBytes = %d, want 24", f.ParamBytes)
			}
			if f.NumRegs == 0 || f.NumRegs > 64 {
				t.Fatalf("NumRegs = %d", f.NumRegs)
			}

			d := newDev(t, fam)
			addrs := loadModule(t, d, m)
			const n = 513
			x, _ := d.Malloc(4 * n)
			y, _ := d.Malloc(4 * n)
			buf := make([]byte, 4*n)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(i)))
			}
			if err := d.Write(x, buf); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(3*i)))
			}
			if err := d.Write(y, buf); err != nil {
				t.Fatal(err)
			}
			params := make([]byte, 24)
			binary.LittleEndian.PutUint64(params[0:], x)
			binary.LittleEndian.PutUint64(params[8:], y)
			binary.LittleEndian.PutUint32(params[16:], math.Float32bits(2))
			binary.LittleEndian.PutUint32(params[20:], n)
			run(t, d, addrs["saxpy"], gpu.D1(5), gpu.D1(128), params, 0)
			out := make([]byte, 4*n)
			if err := d.Read(y, out); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
				if want := 2*float32(i) + 3*float32(i); got != want {
					t.Fatalf("y[%d] = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestSharedReductionPTX(t *testing.T) {
	src := `
.visible .entry reduce(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<2>;
	.reg .pred %p<2>;
	.shared .b8 smem[512];
	mov.u32 %r0, %tid.x;
	shl.b32 %r1, %r0, 2;
	st.shared.u32 [%r1], %r0;
	bar.sync 0;
	setp.ne.u32 %p0, %r0, 0;
	@%p0 exit;
	mov.u32 %r2, 0;    // sum
	mov.u32 %r3, 0;    // i
	mov.u32 %r4, 0;    // addr
LOOP:
	ld.shared.u32 %r5, [%r4];
	add.u32 %r2, %r2, %r5;
	add.u32 %r4, %r4, 4;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p0, %r3, 128;
	@%p0 bra LOOP;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r2;
	exit;
}
`
	m := mustCompile(t, src, sass.Volta)
	if m.Funcs[0].SharedBytes != 512 {
		t.Fatalf("SharedBytes = %d", m.Funcs[0].SharedBytes)
	}
	d := newDev(t, sass.Volta)
	addrs := loadModule(t, d, m)
	out, _ := d.Malloc(4)
	params := make([]byte, 8)
	binary.LittleEndian.PutUint64(params, out)
	run(t, d, addrs["reduce"], gpu.D1(1), gpu.D1(128), params, 512)
	got := make([]byte, 4)
	if err := d.Read(out, got); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(got); v != 128*127/2 {
		t.Fatalf("reduction = %d, want %d", v, 128*127/2)
	}
}

func TestDeviceFunctionCall(t *testing.T) {
	src := `
.visible .entry main(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 20;
	call triple, (%r0), (%r1);
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r1;
	exit;
}
.func triple(.param .u32 v)
{
	.reg .u32 %t<2>;
	ld.param.u32 %t0, [v];
	mul.lo.u32 %t1, %t0, 3;
	setret.u32 %t1;
	ret;
}
`
	m := mustCompile(t, src, sass.Pascal)
	main := funcNamed(t, m, "main")
	if len(main.Related) != 1 || main.Related[0] != "triple" {
		t.Fatalf("Related = %v", main.Related)
	}
	if len(main.Relocs) != 1 {
		t.Fatalf("Relocs = %v", main.Relocs)
	}
	tri := funcNamed(t, m, "triple")
	if tri.Entry {
		t.Fatal("triple marked as entry")
	}
	d := newDev(t, sass.Pascal)
	addrs := loadModule(t, d, m)
	out, _ := d.Malloc(4)
	params := make([]byte, 8)
	binary.LittleEndian.PutUint64(params, out)
	run(t, d, addrs["main"], gpu.D1(1), gpu.D1(1), params, 0)
	got := make([]byte, 4)
	if err := d.Read(out, got); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(got); v != 60 {
		t.Fatalf("call result = %d, want 60", v)
	}
}

func TestToolFuncRegisterBase(t *testing.T) {
	src := `
.toolfunc count(.param .u32 pred, .param .u64 ctr)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<2>;
	ld.param.u32 %r0, [pred];
	ld.param.u64 %rd0, [ctr];
	red.global.add.u64 [%rd0], %rd0;
	ret;
}
`
	m := mustCompile(t, src, sass.Volta)
	f := m.Funcs[0]
	if f.Entry {
		t.Fatal("toolfunc parsed as entry")
	}
	// Locals must start at R16, right above the ABI argument registers,
	// keeping the trampoline save set small.
	for _, name := range []string{"%r0", "%rd0"} {
		_ = name
	}
	if f.NumRegs <= 16 || f.NumRegs > 24 {
		t.Fatalf("toolfunc NumRegs = %d, want a small set just above R16", f.NumRegs)
	}
	// Params map to ABI registers: pred -> R4, ctr -> pair (R6,R7).
	if f.Params[0].Offset != 4 || f.Params[1].Offset != 6 {
		t.Fatalf("ABI parameter registers = %d,%d want 4,6", f.Params[0].Offset, f.Params[1].Offset)
	}
}

func TestImmediateLegalization(t *testing.T) {
	src := `
.visible .entry bigimm(.param .u64 out)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 0xDEADBEEF;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r0;
	exit;
}
`
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		m := mustCompile(t, src, fam)
		f := m.Funcs[0]
		movih := 0
		for _, in := range f.Insts {
			if in.Op == sass.OpMOVIH {
				movih++
			}
		}
		if fam == sass.Kepler && movih != 1 {
			t.Fatalf("%v: MOVIH count = %d, want 1", fam, movih)
		}
		if fam == sass.Volta && movih != 0 {
			t.Fatalf("%v: MOVIH count = %d, want 0", fam, movih)
		}
		d := newDev(t, fam)
		addrs := loadModule(t, d, m)
		out, _ := d.Malloc(4)
		params := make([]byte, 8)
		binary.LittleEndian.PutUint64(params, out)
		run(t, d, addrs["bigimm"], gpu.D1(1), gpu.D1(1), params, 0)
		got := make([]byte, 4)
		if err := d.Read(out, got); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(got); v != 0xDEADBEEF {
			t.Fatalf("%v: constant = %#x", fam, v)
		}
	}
}

func TestWarpOpsAndSelp(t *testing.T) {
	src := `
.visible .entry warpy(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %laneid;
	and.b32 %r1, %r0, 1;
	setp.ne.u32 %p0, %r1, 0;
	vote.ballot.b32 %r2, %p0;       // 0xAAAAAAAA
	selp.b32 %r3, 7, 9, %p0;        // odd: 7, even: 9
	shfl.bfly.b32 %r4, %r0, 1;      // lane^1
	popc.b32 %r5, %r2;              // 16
	add.u32 %r6, %r3, %r4;
	add.u32 %r6, %r6, %r5;
	add.u32 %r6, %r6, %r2;
	ld.param.u64 %rd0, [out];
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	st.global.u32 [%rd0], %r6;
	exit;
}
`
	m := mustCompile(t, src, sass.Volta)
	d := newDev(t, sass.Volta)
	addrs := loadModule(t, d, m)
	out, _ := d.Malloc(4 * 32)
	params := make([]byte, 8)
	binary.LittleEndian.PutUint64(params, out)
	run(t, d, addrs["warpy"], gpu.D1(1), gpu.D1(32), params, 0)
	got := make([]byte, 4*32)
	if err := d.Read(out, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		sel := uint32(9)
		if i%2 == 1 {
			sel = 7
		}
		want := sel + uint32(i^1) + 16 + 0xAAAAAAAA
		if v := binary.LittleEndian.Uint32(got[4*i:]); v != want {
			t.Fatalf("lane %d = %#x, want %#x", i, v, want)
		}
	}
}

func TestLineInfo(t *testing.T) {
	m := mustCompile(t, saxpyPTX, sass.Volta)
	f := m.Funcs[0]
	if len(f.Lines) != len(f.Insts) {
		t.Fatalf("line table length %d != %d instructions", len(f.Lines), len(f.Insts))
	}
	// Lines must be monotonically nondecreasing and nonzero.
	prev := int32(0)
	for i, ln := range f.Lines {
		if ln <= 0 {
			t.Fatalf("instruction %d has no line", i)
		}
		if ln < prev {
			t.Fatalf("line table not monotonic at %d: %d < %d", i, ln, prev)
		}
		prev = ln
	}
}

func TestWFFTProxyCompiles(t *testing.T) {
	src := `
.visible .entry fft(.param .u64 buf)
{
	.reg .f32 %f<2>;
	mov.u32 %f0, 0;
	mov.u32 %f1, 0;
	wfft32.f32 %f0, %f1;
	exit;
}
`
	m := mustCompile(t, src, sass.Volta)
	found := false
	for _, in := range m.Funcs[0].Insts {
		if in.Op == sass.OpWFFT32 {
			found = true
		}
	}
	if !found {
		t.Fatal("wfft32 proxy not lowered to OpWFFT32")
	}
}

var parserErrorCases = []string{
	"mov.u32 %r0, 1;",                       // statement outside function
	".visible .entry f { mov.u32 %r0, 1; }", // undeclared register -> compile error
	".visible .entry f { .reg .u32 %r<2>; bra NOWHERE; }",
	".visible .entry f { .reg .u32 %r<2>; frob.u32 %r0, %r1; }",
	".visible .entry f { .reg .u32 %r<2>; .reg .u32 %r<2>; exit; }",
}

func TestParserErrors(t *testing.T) {
	for _, src := range parserErrorCases {
		if _, err := Compile("bad", src, sass.Volta); err == nil {
			t.Errorf("accepted invalid module:\n%s", src)
		}
	}
}

func TestMinMaxDivLowering(t *testing.T) {
	src := `
.visible .entry mm(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .f32 %f<4>;
	.reg .u64 %rd<2>;
	mov.u32 %r0, 30;
	mov.u32 %r1, 12;
	min.u32 %r2, %r0, %r1;
	max.u32 %r3, %r0, %r1;
	mov.u32 %f0, 12.0;
	mov.u32 %f1, 3.0;
	div.approx.f32 %f2, %f0, %f1;
	cvt.u32.f32 %r4, %f2;
	add.u32 %r2, %r2, %r3;
	add.u32 %r2, %r2, %r4;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r2;
	exit;
}
`
	m := mustCompile(t, src, sass.Maxwell)
	d := newDev(t, sass.Maxwell)
	addrs := loadModule(t, d, m)
	out, _ := d.Malloc(4)
	params := make([]byte, 8)
	binary.LittleEndian.PutUint64(params, out)
	run(t, d, addrs["mm"], gpu.D1(1), gpu.D1(1), params, 0)
	got := make([]byte, 4)
	if err := d.Read(out, got); err != nil {
		t.Fatal(err)
	}
	// min=12, max=30, 12/3=4 -> 46.
	if v := binary.LittleEndian.Uint32(got); v != 46 {
		t.Fatalf("result = %d, want 46", v)
	}
}

func TestGuardNegation(t *testing.T) {
	src := `
.visible .entry g(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	.reg .pred %p<2>;
	mov.u32 %r0, %laneid;
	setp.lt.u32 %p0, %r0, 16;
	mov.u32 %r1, 0;
	@%p0 add.u32 %r1, %r1, 1;
	@!%p0 add.u32 %r1, %r1, 2;
	ld.param.u64 %rd0, [out];
	mul.wide.u32 %rd0, %r0, 4;
	ld.param.u64 %rd0, [out];
	add.u64 %rd0, %rd0, %rd0;
	exit;
}
`
	// Compile-only check that guards parse and attach.
	m := mustCompile(t, src, sass.Volta)
	guarded := 0
	for _, in := range m.Funcs[0].Insts {
		if in.Guarded() {
			guarded++
		}
	}
	if guarded != 2 {
		t.Fatalf("guarded instructions = %d, want 2", guarded)
	}
	if !strings.Contains(sass.FormatProgram(m.Funcs[0].Insts), "@!P0") {
		t.Fatal("negated guard lost")
	}
}

func TestShr64HighWordExtraction(t *testing.T) {
	// shr.b64 with an immediate shift in [32,63] is the high-word
	// extraction idiom (low = hi >> (imm-32), high = 0) that device code
	// uses to compare 64-bit values with the 32-bit setp.
	src := `
.visible .entry hi64(.param .u64 in, .param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd0, [in];
	ld.global.u64 %rd2, [%rd0];
	shr.b64 %rd4, %rd2, 32;
	cvt.u32.u64 %r0, %rd4;
	shr.u64 %rd6, %rd2, 44;
	cvt.u32.u64 %r1, %rd6;
	ld.param.u64 %rd0, [out];
	st.global.u32 [%rd0], %r0;
	st.global.u32 [%rd0+4], %r1;
	exit;
}
`
	m := mustCompile(t, src, sass.Volta)
	d := newDev(t, sass.Volta)
	addrs := loadModule(t, d, m)
	in, _ := d.Malloc(8)
	out, _ := d.Malloc(8)
	const v = uint64(0xfedcba9812345678)
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	if err := d.Write(in, buf); err != nil {
		t.Fatal(err)
	}
	params := make([]byte, 16)
	binary.LittleEndian.PutUint64(params[0:], in)
	binary.LittleEndian.PutUint64(params[8:], out)
	run(t, d, addrs["hi64"], gpu.D1(1), gpu.D1(1), params, 0)
	got := make([]byte, 8)
	if err := d.Read(out, got); err != nil {
		t.Fatal(err)
	}
	if w0 := binary.LittleEndian.Uint32(got[0:]); w0 != uint32(v>>32) {
		t.Fatalf("v>>32 = %#x, want %#x", w0, uint32(v>>32))
	}
	if w1 := binary.LittleEndian.Uint32(got[4:]); w1 != uint32(v>>44) {
		t.Fatalf("v>>44 = %#x, want %#x", w1, uint32(v>>44))
	}

	// Unsupported 64-bit shift shapes must be rejected, not miscompiled.
	for _, bad := range []string{
		"shl.b64 %rd4, %rd2, 32;",
		"shr.b64 %rd4, %rd2, 8;",
		"shr.b64 %rd4, %rd2, 64;",
		"shr.b64 %rd4, %rd2, %r0;",
	} {
		src := strings.Replace(src, "shr.b64 %rd4, %rd2, 32;", bad, 1)
		if _, err := Compile("bad", src, sass.Volta); err == nil {
			t.Fatalf("%s: compiled, want error", bad)
		}
	}
}

// TestDialectForms executes the documented forms no workload or tool uses —
// the rows of the rules table that only this kernel exercises — and checks
// what each computes.
func TestDialectForms(t *testing.T) {
	src := `
.visible .entry forms(.param .u64 out)
{
	.reg .u32 %r<12>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<14>;
	.reg .pred %p<4>;
	ld.param.u64 %rd0, [out];
	mov.u32 %r0, %laneid;
	setp.lt.u32 %p0, %r0, 16;
	vote.any.pred %p1, %p0;
	vote.all.pred %p2, %p0;
	selp.u32 %r1, 1, 0, %p1;
	selp.u32 %r2, 1, 0, !%p2;
	setp.ne.u32 %p3, %r0, 0;
	@%p3 ret;                         // lane 0 stores
	st.global.u32 [%rd0], %r1;        // [0] any = 1
	st.global.u32 [%rd0+4], %r2;      // [1] !all = 1
	mov.u64 %rd2, 100;
	sub.u64 %rd2, %rd2, 58;
	cvt.u32.u64 %r3, %rd2;
	st.global.u32 [%rd0+8], %r3;      // [2] 42
	mov.u32 %r4, 8;
	st.local.u32 [%r4+4], 77;
	ld.local.u32 %r5, [%r4+4];
	st.global.u32 [%rd0+12], %r5;     // [3] 77
	atom.global.and.b32 %r6, [%rd0+16], 0x0F;
	st.global.u32 [%rd0+20], %r6;     // [5] old word 4 = 0xFF, word 4 now 0x0F
	red.global.or.b32 [%rd0+16], 0xF0;
	atom.global.xor.b32 %r7, [%rd0+16], 0xFF;
	st.global.u32 [%rd0+24], %r7;     // [6] 0xFF, word 4 now 0
	mov.f32 %f0, 4.0;
	rcp.f32 %f1, %f0;                 // 0.25
	rsqrt.approx.f32 %f2, %f0;        // 0.5
	rsqrt.f32 %f3, %f0;
	sqrt.approx.f32 %f4, %f0;         // 2
	sqrt.f32 %f5, %f0;
	ex2.approx.f32 %f6, %f0;          // 16
	ex2.f32 %f7, %f0;
	lg2.approx.f32 %f8, %f0;          // 2
	lg2.f32 %f9, %f0;
	mov.f32 %f10, 0.0;
	sin.f32 %f11, %f10;               // 0
	cos.f32 %f12, %f10;               // 1
	add.f32 %f1, %f1, %f2;
	add.f32 %f1, %f1, %f3;
	add.f32 %f1, %f1, %f4;
	add.f32 %f1, %f1, %f5;
	add.f32 %f1, %f1, %f6;
	add.f32 %f1, %f1, %f7;
	add.f32 %f1, %f1, %f8;
	add.f32 %f1, %f1, %f9;
	add.f32 %f1, %f1, %f11;
	add.f32 %f1, %f1, %f12;
	st.global.f32 [%rd0+28], %f1;     // [7] 42.25
	ret;
}
.toolfunc preds
{
	.reg .u32 %r<2>;
	rdpred.b32 %r0;
	xor.b32 %r0, %r0, 1;
	wrpred.b32 %r0;
	ret;
}
`
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		m := mustCompile(t, src, fam)
		tf := funcNamed(t, m, "preds")
		if tf.Insts[0].Op != sass.OpRDPRED || tf.Insts[2].Op != sass.OpWRPRED || tf.Insts[2].Src2 != tf.Insts[0].Dst {
			t.Fatalf("%v: device-API predicate ops lowered to\n%s", fam, sass.FormatProgram(tf.Insts))
		}
		d := newDev(t, fam)
		addrs := loadModule(t, d, m)
		out, _ := d.Malloc(32)
		buf := make([]byte, 32)
		binary.LittleEndian.PutUint32(buf[16:], 0xFF)
		if err := d.Write(out, buf); err != nil {
			t.Fatal(err)
		}
		params := make([]byte, 8)
		binary.LittleEndian.PutUint64(params, out)
		run(t, d, addrs["forms"], gpu.D1(1), gpu.D1(32), params, 0)
		if err := d.Read(out, buf); err != nil {
			t.Fatal(err)
		}
		want := []uint32{1, 1, 42, 77, 0, 0xFF, 0xFF, math.Float32bits(42.25)}
		for i, w := range want {
			if got := binary.LittleEndian.Uint32(buf[4*i:]); got != w {
				t.Errorf("%v: out[%d] = %#x, want %#x", fam, i, got, w)
			}
		}
	}
}

// TestImplicitTerminator: a body that can run past its last statement gets a
// terminator appended — after a guarded exit, and where a label sits at the
// very end — and a body that cannot does not.
func TestImplicitTerminator(t *testing.T) {
	for _, c := range []struct {
		body  string
		insts int
	}{
		{"exit;", 1},
		{"@%p0 exit;", 2},
		{"@%p0 bra END; exit; END:", 3},
		{"mov.u32 %r0, 1;", 2},
	} {
		m := mustCompile(t, ".visible .entry f { .reg .u32 %r<2>; .reg .pred %p<2>; "+c.body+" }", sass.Volta)
		insts := m.Funcs[0].Insts
		if last := insts[len(insts)-1]; len(insts) != c.insts || last.Op != sass.OpEXIT || last.Guarded() {
			t.Errorf("%q lowered to\n%s", c.body, sass.FormatProgram(insts))
		}
	}
}
