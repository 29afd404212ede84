// Package nvlib is the reproduction's precompiled accelerated library — the
// cuBLAS/cuDNN analog. Its kernels are written in the PTX dialect, compiled
// ahead of time, and shipped ONLY as stripped device binaries (cubins): no
// PTX or line information survives, exactly like a proprietary vendor
// library. Applications load it with cuModuleLoadCubin, so a compile-time
// instrumentation tool could never see inside; NVBit can, which is the point
// of the paper's Section 6.1 experiment.
package nvlib

import (
	"fmt"
	"sync"

	"nvbitgo/gpusim"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// Kernel dimensions are powers of two so index arithmetic needs no integer
// division (the synthetic SASS has none).
const (
	// TileN is the row length (in elements) of library tensors.
	TileN = 64
	// LogTileN is log2(TileN).
	LogTileN = 6
)

// source is the library's (internal, never-shipped) PTX. All kernels take a
// uniform signature (dst, src, aux pointers plus a u32 scalar) to keep the
// host-side launch helpers simple.
const source = `
.version 1.0
// sgemm_nt: C[gid] += sum_k A[row,k] * B[k,col], K = scalar.
.visible .entry nv_sgemm(.param .u64 c, .param .u64 a, .param .u64 b, .param .u32 k)
{
	.reg .u32 %r<12>;
	.reg .u64 %rd<12>;
	.reg .f32 %f<6>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;   // gid = element of C
	shr.b32 %r4, %r3, 6;             // row = gid >> LogTileN
	and.b32 %r5, %r3, 63;            // col = gid & (TileN-1)
	ld.param.u64 %rd0, [a];
	ld.param.u64 %rd2, [b];
	ld.param.u32 %r6, [k];
	// A row base: a + row*K*4
	mul.lo.u32 %r7, %r4, %r6;
	mul.wide.u32 %rd4, %r7, 4;
	add.u64 %rd0, %rd0, %rd4;
	// B col base: b + col*4 (row stride TileN*4)
	mul.wide.u32 %rd6, %r5, 4;
	add.u64 %rd2, %rd2, %rd6;
	mov.u32 %f0, 0.0;
KLOOP:
	ld.global.f32 %f1, [%rd0];
	ld.global.f32 %f2, [%rd2];
	fma.rn.f32 %f0, %f1, %f2, %f0;
	add.u64 %rd0, %rd0, 4;
	add.u64 %rd2, %rd2, 256;         // TileN*4
	sub.u32 %r6, %r6, 1;
	setp.gt.u32 %p0, %r6, 0;
	@%p0 bra KLOOP;
	ld.param.u64 %rd8, [c];
	mul.wide.u32 %rd10, %r3, 4;
	add.u64 %rd8, %rd8, %rd10;
	ld.global.f32 %f3, [%rd8];
	add.f32 %f3, %f3, %f0;
	st.global.f32 [%rd8], %f3;
	exit;
}
// nv_conv3: 3-tap 1-D convolution row pass with halo; aux holds the taps.
.visible .entry nv_conv3(.param .u64 dst, .param .u64 src, .param .u64 taps, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<10>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [src];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.param.u64 %rd4, [taps];
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd0+4];
	ld.global.f32 %f2, [%rd0+8];
	ld.global.f32 %f3, [%rd4];
	ld.global.f32 %f4, [%rd4+4];
	ld.global.f32 %f5, [%rd4+8];
	mul.f32 %f6, %f0, %f3;
	fma.rn.f32 %f6, %f1, %f4, %f6;
	fma.rn.f32 %f6, %f2, %f5, %f6;
	ld.param.u64 %rd6, [dst];
	add.u64 %rd6, %rd6, %rd2;
	st.global.f32 [%rd6], %f6;
	exit;
}
// nv_pool2: 2:1 max pooling; reads a strided pair per output element.
.visible .entry nv_pool2(.param .u64 dst, .param .u64 src, .param .u64 unused, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .f32 %f<4>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [src];
	shl.b32 %r5, %r3, 3;             // src offset = gid*2 elements
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd0+4];
	setp.gt.f32 %p1, %f0, %f1;
	selp.b32 %f2, %f0, %f1, %p1;
	ld.param.u64 %rd4, [dst];
	mul.wide.u32 %rd6, %r3, 4;
	add.u64 %rd4, %rd4, %rd6;
	st.global.f32 [%rd4], %f2;
	exit;
}
// nv_bias_relu: dst = max(src + bias[col], 0); fully coalesced.
.visible .entry nv_bias_relu(.param .u64 dst, .param .u64 src, .param .u64 bias, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<6>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [src];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.f32 %f0, [%rd0];
	and.b32 %r5, %r3, 63;
	ld.param.u64 %rd4, [bias];
	mul.wide.u32 %rd6, %r5, 4;
	add.u64 %rd4, %rd4, %rd6;
	ld.global.f32 %f1, [%rd4];
	add.f32 %f2, %f0, %f1;
	mov.u32 %f3, 0.0;
	setp.gt.f32 %p1, %f2, %f3;
	selp.b32 %f4, %f2, %f3, %p1;
	ld.param.u64 %rd8, [dst];
	add.u64 %rd8, %rd8, %rd2;
	st.global.f32 [%rd8], %f4;
	exit;
}
// nv_norm: dst = (src - mean) * invstd, scalars broadcast from aux[0], aux[1].
.visible .entry nv_norm(.param .u64 dst, .param .u64 src, .param .u64 stats, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<8>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [src];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.f32 %f0, [%rd0];
	ld.param.u64 %rd4, [stats];
	ld.global.f32 %f1, [%rd4];
	ld.global.f32 %f2, [%rd4+4];
	sub.f32 %f3, %f0, %f1;
	mul.f32 %f4, %f3, %f2;
	ld.param.u64 %rd6, [dst];
	add.u64 %rd6, %rd6, %rd2;
	st.global.f32 [%rd6], %f4;
	exit;
}
// nv_reduce: per-CTA shared-memory sum of 256 elements into dst[ctaid].
.visible .entry nv_reduce(.param .u64 dst, .param .u64 src, .param .u64 unused, .param .u32 n)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<8>;
	.reg .f32 %f<4>;
	.reg .pred %p<3>;
	.shared .b8 smem[1024];
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u64 %rd0, [src];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.f32 %f0, [%rd0];
	shl.b32 %r4, %r2, 2;
	st.shared.f32 [%r4], %f0;
	bar.sync 0;
	mov.u32 %r5, 128;
RLOOP:
	setp.ge.u32 %p0, %r2, %r5;
	@%p0 bra SKIP;
	shl.b32 %r6, %r5, 2;
	add.u32 %r6, %r4, %r6;
	ld.shared.f32 %f1, [%r6];
	ld.shared.f32 %f2, [%r4];
	add.f32 %f2, %f2, %f1;
	st.shared.f32 [%r4], %f2;
SKIP:
	bar.sync 0;
	shr.b32 %r5, %r5, 1;
	setp.gt.u32 %p1, %r5, 0;
	@%p1 bra RLOOP;
	setp.ne.u32 %p2, %r2, 0;
	@%p2 exit;
	ld.shared.f32 %f3, [0];
	ld.param.u64 %rd4, [dst];
	mul.wide.u32 %rd6, %r0, 4;
	add.u64 %rd4, %rd4, %rd6;
	st.global.f32 [%rd4], %f3;
	exit;
}
`

var (
	cubinMu    sync.Mutex
	cubinCache = map[sass.Family][]byte{}
)

// CubinFor builds (once) and returns the library's stripped device binary
// for a family — what a vendor would ship.
func CubinFor(f sass.Family) ([]byte, error) {
	cubinMu.Lock()
	defer cubinMu.Unlock()
	if img, ok := cubinCache[f]; ok {
		return img, nil
	}
	img, err := gpusim.CompileToCubin("nvaccel", source, f, true) // stripped: binary-only
	if err != nil {
		return nil, fmt.Errorf("nvlib: %w", err)
	}
	cubinCache[f] = img
	return img, nil
}

// Lib is an opened library handle.
type Lib struct {
	ctx *driver.Context
	mod *driver.Module
	fns map[string]*driver.Function
}

// KernelNames lists the library's kernels.
var KernelNames = []string{"nv_sgemm", "nv_conv3", "nv_pool2", "nv_bias_relu", "nv_norm", "nv_reduce"}

// Open loads the library binary into the context.
func Open(ctx *driver.Context) (*Lib, error) {
	img, err := CubinFor(ctx.Device().Family())
	if err != nil {
		return nil, err
	}
	mod, err := ctx.ModuleLoadCubin(img)
	if err != nil {
		return nil, err
	}
	l := &Lib{ctx: ctx, mod: mod, fns: make(map[string]*driver.Function)}
	for _, name := range KernelNames {
		f, err := mod.GetFunction(name)
		if err != nil {
			return nil, err
		}
		l.fns[name] = f
	}
	return l, nil
}

// Module returns the loaded binary-only module.
func (l *Lib) Module() *driver.Module { return l.mod }

// Launch runs one library kernel with elems threads. All library kernels
// share the (dst, src, aux, scalar) signature; for most kernels the scalar
// is the element count, for nv_sgemm it is the K depth.
func (l *Lib) Launch(kernel string, dst, src, aux uint64, scalar uint32, elems int) error {
	f, ok := l.fns[kernel]
	if !ok {
		return fmt.Errorf("nvlib: unknown kernel %q", kernel)
	}
	params, err := driver.PackParams(f, dst, src, aux, scalar)
	if err != nil {
		return err
	}
	const block = 256
	grid := (elems + block - 1) / block
	if grid == 0 {
		grid = 1
	}
	return l.ctx.LaunchKernel(f, gpu.D1(grid), gpu.D1(block), 0, params)
}
