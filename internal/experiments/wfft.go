package experiments

import (
	"fmt"
	"strings"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/emu"
	"nvbitgo/nvbit"
)

// proxyFFTPTX is the application kernel of the paper's Listing 10: one
// 32-point FFT per warp via the hypothetical WFFT32 proxy instruction.
const proxyFFTPTX = `
.visible .entry fft32(.param .u64 re, .param .u64 im)
{
	.reg .u32 %r<4>;
	.reg .f32 %f<4>;
	.reg .u64 %rd<6>;
	mov.u32 %r0, %laneid;
	ld.param.u64 %rd0, [re];
	ld.param.u64 %rd2, [im];
	mul.wide.u32 %rd4, %r0, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd2];
	wfft32.f32 %f0, %f1;
	st.global.f32 [%rd0], %f0;
	st.global.f32 [%rd2], %f1;
	exit;
}
`

// softwareFFTPTX performs the same warp-wide FFT in plain CUDA-equivalent
// code (shuffle butterflies), the paper's comparison point: replacing the
// WFFT32 instruction with software raises the per-warp instruction count
// roughly sevenfold (21 vs 150 in the paper).
const softwareFFTPTX = `
.visible .entry fft32sw(.param .u64 re, .param .u64 im)
{
	.reg .u32 %r<12>;
	.reg .f32 %f<16>;
	.reg .u64 %rd<6>;
	.reg .pred %p<3>;
	mov.u32 %r0, %laneid;
	ld.param.u64 %rd0, [re];
	ld.param.u64 %rd2, [im];
	mul.wide.u32 %rd4, %r0, 4;
	add.u64 %rd0, %rd0, %rd4;
	add.u64 %rd2, %rd2, %rd4;
	ld.global.f32 %f0, [%rd0];
	ld.global.f32 %f1, [%rd2];
	mov.u32 %r2, %laneid;
	mov.u32 %r3, 16;
	mov.u32 %r8, 1;
STAGE:
	shfl.bfly.b32 %f2, %f0, %r3;
	shfl.bfly.b32 %f3, %f1, %r3;
	and.b32 %r4, %r2, %r3;
	setp.eq.u32 %p0, %r4, 0;
	add.f32 %f4, %f0, %f2;
	add.f32 %f5, %f1, %f3;
	sub.f32 %f6, %f2, %f0;
	sub.f32 %f7, %f3, %f1;
	sub.u32 %r5, %r3, 1;
	and.b32 %r6, %r2, %r5;
	mul.lo.u32 %r7, %r6, %r8;
	cvt.f32.u32 %f8, %r7;
	mov.u32 %f9, 0FBE490FDB;
	mul.f32 %f8, %f8, %f9;
	cos.approx.f32 %f10, %f8;
	sin.approx.f32 %f11, %f8;
	mul.f32 %f12, %f6, %f10;
	mul.f32 %f13, %f7, %f11;
	sub.f32 %f12, %f12, %f13;
	mul.f32 %f13, %f6, %f11;
	mul.f32 %f14, %f7, %f10;
	add.f32 %f13, %f13, %f14;
	selp.b32 %f0, %f4, %f12, %p0;
	selp.b32 %f1, %f5, %f13, %p0;
	shr.b32 %r3, %r3, 1;
	shl.b32 %r8, %r8, 1;
	setp.gt.u32 %p1, %r3, 0;
	@%p1 bra STAGE;
	and.b32 %r4, %r2, 1;
	shl.b32 %r4, %r4, 4;
	and.b32 %r5, %r2, 2;
	shl.b32 %r5, %r5, 2;
	or.b32 %r4, %r4, %r5;
	and.b32 %r5, %r2, 4;
	or.b32 %r4, %r4, %r5;
	and.b32 %r5, %r2, 8;
	shr.b32 %r5, %r5, 2;
	or.b32 %r4, %r4, %r5;
	and.b32 %r5, %r2, 16;
	shr.b32 %r5, %r5, 4;
	or.b32 %r4, %r4, %r5;
	shfl.idx.b32 %f0, %f0, %r4;
	shfl.idx.b32 %f1, %f1, %r4;
	st.global.f32 [%rd0], %f0;
	st.global.f32 [%rd2], %f1;
	exit;
}
`

const wfftTallyPTX = `
.toolfunc wfft_tally(.param .u64 ctr)
{
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [ctr];
	mov.u64 %rd2, 1;
	red.global.add.u64 [%rd0], %rd2;
	ret;
}
`

// wfftTool combines instruction emulation with instruction counting — the
// paper's "trace instruction sets that do not exist" composition: the proxy
// WFFT32 is both counted and replaced by its emulator.
type wfftTool struct {
	emulate bool
	ctr     uint64
}

func (t *wfftTool) AtInit(n *nvbit.NVBit) {
	if err := n.RegisterToolPTX(wfftTallyPTX); err != nil {
		panic(err)
	}
	if t.emulate {
		if err := emu.RegisterDeviceFunctions(n); err != nil {
			panic(err)
		}
	}
	var err error
	if t.ctr, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *wfftTool) AtTerm(n *nvbit.NVBit) {}

func (t *wfftTool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, name string, p *nvbit.CallParams) {
	if exit || cbid != nvbit.CBLaunchKernel {
		return
	}
	f := p.Launch.Func
	if n.IsInstrumented(f) {
		return
	}
	insts, err := n.GetInstrs(f)
	if err != nil {
		panic(err)
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "wfft_tally", nvbit.IPointBefore, nvbit.ArgDevPtr(t.ctr))
	}
	if t.emulate {
		if _, err := emu.Apply(n, f); err != nil {
			panic(err)
		}
	}
}

// WFFTResult captures the Section 6.3 comparison.
type WFFTResult struct {
	// ProxyPerWarp is the per-warp application instruction count when the
	// kernel uses the emulated WFFT32 instruction (paper: 21).
	ProxyPerWarp float64
	// SoftwarePerWarp is the count when the FFT is expanded to plain warp
	// shuffle code (paper: 150).
	SoftwarePerWarp float64
}

// WFFT reproduces the Section 6.3 instruction-emulation experiment: the same
// warp-wide FFT implemented as a hypothetical instruction (counted while
// being emulated) versus as software, measured with the instruction-count
// tool on one warp.
func WFFT() (WFFTResult, error) {
	measure := func(src, entry string, emulate bool) (float64, error) {
		tool := &wfftTool{emulate: emulate}
		_, nv, err := run(tool, func(ctx *driver.Context) error {
			mod, err := ctx.ModuleLoadPTX("fft", src)
			if err != nil {
				return err
			}
			f, err := mod.GetFunction(entry)
			if err != nil {
				return err
			}
			re, err := ctx.MemAlloc(4 * 32)
			if err != nil {
				return err
			}
			im, err := ctx.MemAlloc(4 * 32)
			if err != nil {
				return err
			}
			params, err := driver.PackParams(f, re, im)
			if err != nil {
				return err
			}
			return ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params)
		})
		if err != nil {
			return 0, err
		}
		count, err := nv.ReadU64(tool.ctr)
		if err != nil {
			return 0, err
		}
		return float64(count) / 32, nil // one warp: thread-level / 32
	}
	proxy, err := measure(proxyFFTPTX, "fft32", true)
	if err != nil {
		return WFFTResult{}, fmt.Errorf("wfft proxy: %w", err)
	}
	software, err := measure(softwareFFTPTX, "fft32sw", false)
	if err != nil {
		return WFFTResult{}, fmt.Errorf("wfft software: %w", err)
	}
	return WFFTResult{ProxyPerWarp: proxy, SoftwarePerWarp: software}, nil
}

// RenderWFFT formats the Section 6.3 comparison.
func RenderWFFT(r WFFTResult) string {
	var b strings.Builder
	b.WriteString("Section 6.3: warp-wide FFT, instructions per warp (app code only)\n")
	fmt.Fprintf(&b, "with WFFT32 instruction (emulated): %6.1f   (paper: 21)\n", r.ProxyPerWarp)
	fmt.Fprintf(&b, "software warp-shuffle FFT:          %6.1f   (paper: 150)\n", r.SoftwarePerWarp)
	fmt.Fprintf(&b, "ISA-extension reduction:            %6.1fx  (paper: ~7.1x)\n", r.SoftwarePerWarp/r.ProxyPerWarp)
	return b.String()
}
