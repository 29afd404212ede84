package core

import (
	"strings"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// buildICFKernel hand-assembles a kernel with an indirect branch (BRX) —
// compilers emit these for jump tables; the PTX dialect never does, so the
// function is packaged directly as a device binary. The jump-table base is
// passed as a parameter (c[1][0]) because absolute code addresses are only
// known after load, exactly like a real jump table filled in by the loader.
const icfSASS = `
	LDC R2, c[1][0]        // jump-table base (absolute word index)
	S2R R0, SR_LANEID
	LOP.AND R1, R0, RZ, 1
	SHL R1, R1, RZ, 1      // lane parity * 2 words per target block
	IADD R2, R2, R1, 0
	BRX R2, 0
t0:
	MOVI R3, 111
	BRA join
t1:
	MOVI R3, 222
	BRA join
join:
	LDC.W R4, c[1][8]      // out pointer
	MOVI R6, 4
	IMAD.W R4, R0, R6, R4
	STG [R4], R3
	EXIT
`

// t0 is the 7th instruction (index 6) of icfSASS.
const icfTargetOffset = 6

func loadICF(t *testing.T, ctx *driver.Context) *driver.Function {
	t.Helper()
	insts, err := sass.ParseProgram(icfSASS)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ptx.Module{Name: "icf", Family: ctx.Device().Family(), Funcs: []*ptx.Func{{Insts: insts, FuncInfo: ptx.FuncInfo{
		Name:       "icf_kernel",
		Entry:      true,
		NumRegs:    8,
		Params:     []ptx.Param{{Name: "base", Bytes: 4, Offset: 0}, {Name: "out", Bytes: 8, Offset: 8}},
		ParamBytes: 16,
	}}}}
	cm, err := driver.Assemble(pm)
	if err != nil {
		t.Fatal(err)
	}
	img, err := driver.BuildCubin(cm, true)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadCubin(img)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("icf_kernel")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func runICF(t *testing.T, ctx *driver.Context, f *driver.Function) []uint32 {
	t.Helper()
	out, err := ctx.MemAlloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]byte, 16)
	base := uint32(int(f.Addr) + icfTargetOffset)
	params[0], params[1], params[2], params[3] = byte(base), byte(base>>8), byte(base>>16), byte(base>>24)
	for i := 0; i < 8; i++ {
		params[8+i] = byte(out >> (8 * i))
	}
	if err := ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*32)
	if err := ctx.MemcpyDtoH(host, out); err != nil {
		t.Fatal(err)
	}
	vals := make([]uint32, 32)
	for i := range vals {
		vals[i] = uint32(host[4*i]) | uint32(host[4*i+1])<<8
	}
	return vals
}

func TestICFBasicBlockFallback(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	var sawICFError bool
	var ctr uint64
	tool := &testTool{}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctr, _ = nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		// The basic-block view must be refused for ICF functions...
		if _, err := n.GetBasicBlocks(f); err == nil {
			panic("basic blocks produced for an ICF function")
		} else if strings.Contains(err.Error(), "indirect control flow") {
			sawICFError = true
		}
		// ...and tools fall back to the flat view (paper Section 4).
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		for _, i := range insts {
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctr))
		}
	}
	ctx, _ := api.CtxCreate()
	f := loadICF(t, ctx)

	vals := runICF(t, ctx, f)
	for lane, v := range vals {
		want := uint32(111)
		if lane%2 == 1 {
			want = 222
		}
		if v != want {
			t.Fatalf("lane %d = %d, want %d (BRX broken under instrumentation)", lane, v, want)
		}
	}
	if !sawICFError {
		t.Fatal("ICF error not surfaced")
	}
	count, _ := nv.ReadU64(ctr)
	// Per lane: 6 shared + 2 in its parity block + 5 join = 13.
	if count != 13*32 {
		t.Fatalf("counted %d thread-level instructions, want %d", count, 13*32)
	}
}

func TestICFUninstrumentedBaseline(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	f := loadICF(t, ctx)
	vals := runICF(t, ctx, f)
	for lane, v := range vals {
		want := uint32(111)
		if lane%2 == 1 {
			want = 222
		}
		if v != want {
			t.Fatalf("lane %d = %d, want %d", lane, v, want)
		}
	}
}

// TestICFLivenessConservative: indirect control flow defeats the CFG the
// liveness pass runs over, so LiveRegs must report the conservative
// all-live set (clipped to the function's register requirement) and the
// save sets must be sized from the full bound — degraded, never wrong.
func TestICFLivenessConservative(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	tool := &testTool{}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctr, _ := nv.Malloc(8)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			panic(err)
		}
		full := sass.RegRange(f.MaxRegs())
		for _, i := range insts {
			rs, conservative := n.LiveRegs(i)
			if !conservative {
				t.Error("LiveRegs on an ICF function did not report the conservative fallback")
			}
			if rs != full {
				t.Errorf("ICF live set %v, want the full bound %v", rs.Regs(), full.Regs())
			}
			n.InsertCallArgs(i, "tally", IPointBefore, ArgDevPtr(ctr))
		}
	}
	ctx, _ := api.CtxCreate()
	f := loadICF(t, ctx)
	vals := runICF(t, ctx, f)
	for lane, v := range vals {
		want := uint32(111)
		if lane%2 == 1 {
			want = 222
		}
		if v != want {
			t.Fatalf("lane %d = %d, want %d (BRX broken under conservative save sets)", lane, v, want)
		}
	}
	// Every save set was sized from the conservative bound union the tool
	// requirement: exactly one cached size.
	tf, err := nv.loader.lookup("tally")
	if err != nil {
		t.Fatal(err)
	}
	want := nv.hal.SaveSetSize(max(f.MaxRegs(), tf.numRegs))
	if len(nv.loader.saves) != 1 {
		t.Fatalf("ICF instrumentation cached %d save sizes, want 1", len(nv.loader.saves))
	}
	if _, ok := nv.loader.saves[want]; !ok {
		t.Fatalf("ICF save size not the conservative %d (cached: %v)", want, nv.loader.saves)
	}
}
