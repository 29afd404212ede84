package instrcount

import (
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

const appPTX = `
.visible .entry stride(.param .u64 data, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r5, [%rd0];
	add.u32 %r5, %r5, 7;
	st.global.u32 [%rd0], %r5;
	exit;
}
`

func runApp(t *testing.T, tool nvbit.Tool, useCubin bool) (*nvbit.NVBit, *gpusim.API) {
	t.Helper()
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		t.Fatal(err)
	}
	var nv *nvbit.NVBit
	if tool != nil {
		nv, err = nvbit.Attach(api, tool)
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	var mod *gpusim.Module
	if useCubin {
		image, err := gpusim.CompileToCubin("libfake", appPTX, gpusim.Volta, true)
		if err != nil {
			t.Fatal(err)
		}
		mod, err = ctx.ModuleLoadCubin(image)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		mod, err = ctx.ModuleLoadPTX("app", appPTX)
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := mod.GetFunction("stride")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	data, err := ctx.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	params, err := gpusim.PackParams(f, data, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := ctx.LaunchKernel(f, gpusim.D1(3), gpusim.D1(128), 0, params); err != nil {
			t.Fatal(err)
		}
	}
	return nv, api
}

func TestCountMatchesGroundTruth(t *testing.T) {
	// Native ground truth.
	_, api := runApp(t, nil, false)
	native := api.Device().Stats().ThreadInstrs

	tool := New()
	nv, _ := runApp(t, tool, false)
	if got := tool.Total(nv); got != native {
		t.Fatalf("tool counted %d, native executed %d", got, native)
	}
	if tool.LibInstrs(nv) != 0 {
		t.Fatal("library counter moved for an app module")
	}
}

func TestPerBasicBlockEqualsPerInstruction(t *testing.T) {
	flat := New()
	nv1, _ := runApp(t, flat, false)
	bb := New()
	bb.PerBasicBlock = true
	nv2, _ := runApp(t, bb, false)
	if a, b := flat.Total(nv1), bb.Total(nv2); a != b || a == 0 {
		t.Fatalf("per-instruction %d != per-basic-block %d", a, b)
	}
}

func TestLibraryAttribution(t *testing.T) {
	tool := New()
	nv, _ := runApp(t, tool, true)
	if tool.AppInstrs(nv) != 0 {
		t.Fatal("app counter moved for a binary-only module")
	}
	if tool.LibInstrs(nv) == 0 {
		t.Fatal("library kernel not counted")
	}
	if f := tool.LibraryFraction(nv); f != 1 {
		t.Fatalf("library fraction = %v, want 1", f)
	}
}
