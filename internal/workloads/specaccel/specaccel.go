// Package specaccel is the synthetic stand-in for the SPEC ACCEL (OpenACC)
// benchmark suite used throughout the paper's evaluation (Figures 5, 7, 8
// and 9). The real suite is proprietary; what the experiments actually
// depend on are per-benchmark *characteristics* — number of unique kernels,
// launch counts, kernel brevity, instruction mix, and whether control flow
// depends on computed values — which this package encodes explicitly per
// benchmark (see the table in Benchmarks).
//
// Like OpenACC binaries, the kernels reach the driver as embedded PTX that
// is JIT-compiled at module load: NVBit instruments the resulting SASS, so
// the high-level language is irrelevant (paper Section 5.2).
package specaccel

import (
	"fmt"
	"strings"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/enum"
	"nvbitgo/internal/gpu"
)

// Size selects the problem scale. Small exists for unit tests; Medium and
// Large correspond to the paper's Figure 5 and Figures 7–9 configurations.
type Size int

const (
	Small Size = iota
	Medium
	Large
)

var sizeNames = []string{"small", "medium", "large"}

func (s Size) String() string { return enum.Name(sizeNames, "Size", s) }

// ParseSize resolves a size name ("small", "medium", "large").
func ParseSize(name string) (Size, error) {
	return enum.Parse[Size](sizeNames, "specaccel size", name)
}

// Find returns the suite benchmark with the given name.
func Find(name string) (*Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("specaccel: unknown benchmark %q", name)
}

// elems returns the per-size element count (powers of two; the synthetic
// SASS has no integer division).
func (s Size) elems() int {
	switch s {
	case Small:
		return 1 << 10
	case Medium:
		return 1 << 12
	default:
		return 1 << 14
	}
}

// kspec is one kernel of a benchmark.
type kspec struct {
	name     string
	ptx      string
	launches [3]int // per Size
	shortK   bool   // quarter-sized grid (brief kernels, e.g. ilbdc)
}

// Benchmark is one suite entry.
type Benchmark struct {
	Name string
	// ValueDependent marks benchmarks whose kernel control flow depends
	// on computed values that evolve across launches — the source of
	// nonzero kernel-sampling error in Figure 9.
	ValueDependent bool
	kernels        []kspec
}

// UniqueKernels returns the number of distinct kernels the benchmark loads.
func (b *Benchmark) UniqueKernels() int { return len(b.kernels) }

// TotalLaunches returns the number of kernel launches at a size.
func (b *Benchmark) TotalLaunches(s Size) int {
	t := 0
	for _, k := range b.kernels {
		t += k.launches[s]
	}
	return t
}

// --- kernel template generators ----------------------------------------------

const prologue = `
	.reg .u32 %r<12>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<10>;
	.reg .pred %p<3>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
`

func header(name string) string {
	return fmt.Sprintf(".visible .entry %s(.param .u64 data, .param .u32 n)\n{\n", name)
}

// stencilKernel: out[i] = sum of taps over in[i..i+taps); in at word 0, out
// past the halo at word n+1024 so the tap reads of high-index threads stay
// clear of concurrent writes (grid-dimension-dependent control flow only).
func stencilKernel(name string, taps int) string {
	var b strings.Builder
	b.WriteString(header(name))
	b.WriteString(prologue)
	b.WriteString(`
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	mov.u32 %f0, 0.0;
	mov.u32 %f1, 0.25;
`)
	for t := 0; t < taps; t++ {
		fmt.Fprintf(&b, "\tld.global.f32 %%f2, [%%rd4+%d];\n", 4*t)
		b.WriteString("\tfma.rn.f32 %f0, %f2, %f1, %f0;\n")
	}
	b.WriteString(`
	ld.param.u32 %r5, [n];
	mul.wide.u32 %rd6, %r5, 4;
	add.u64 %rd8, %rd4, %rd6;
	st.global.f32 [%rd8+4096], %f0;  // out partition at word n+1024, past the halo
	exit;
}
`)
	return b.String()
}

// triadKernel: out[i] = b[i] + s*c[i], where b and c are quarter-offset
// views of the input partition (wrap-masked so all reads stay inside it —
// sizes are powers of two) and out is the partition past the halo. Reads
// and same-launch writes are disjoint by construction.
func triadKernel(name string, scaleBits string) string {
	return header(name) + prologue + fmt.Sprintf(`
	shr.b32 %%r5, %%r4, 2;          // q = n/4
	sub.u32 %%r6, %%r4, 1;          // wrap mask n-1
	add.u32 %%r7, %%r3, %%r5;
	and.b32 %%r7, %%r7, %%r6;       // (i+q) mod n
	mul.wide.u32 %%rd2, %%r7, 4;
	add.u64 %%rd8, %%rd0, %%rd2;
	ld.global.f32 %%f0, [%%rd8];    // b[i]
	add.u32 %%r7, %%r7, %%r5;
	and.b32 %%r7, %%r7, %%r6;       // (i+2q) mod n
	mul.wide.u32 %%rd2, %%r7, 4;
	add.u64 %%rd8, %%rd0, %%rd2;
	ld.global.f32 %%f1, [%%rd8];    // c[i]
	mov.u32 %%f2, %s;
	fma.rn.f32 %%f3, %%f1, %%f2, %%f0;
	add.u32 %%r7, %%r3, %%r4;       // n + i
	mul.wide.u32 %%rd2, %%r7, 4;
	add.u64 %%rd6, %%rd0, %%rd2;
	st.global.f32 [%%rd6+4096], %%f3;  // out partition at word n+1024, past the halo
	exit;
}
`, scaleBits)
}

// computeKernel: an arithmetic-dense per-thread loop with a fixed trip
// count; optionally heavy on the multifunction unit (sin/cos/rsqrt).
func computeKernel(name string, iters int, mufu bool) string {
	body := `
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	ld.global.f32 %f0, [%rd4];
	mov.u32 %f1, 1.0009765;
	mov.u32 %f2, 0.0;
` + fmt.Sprintf("\tmov.u32 %%r5, %d;\nCLOOP:\n", iters)
	if mufu {
		body += `
	sin.approx.f32 %f3, %f0;
	cos.approx.f32 %f4, %f0;
	mul.f32 %f5, %f3, %f3;
	fma.rn.f32 %f2, %f4, %f4, %f5;
	fma.rn.f32 %f0, %f0, %f1, %f2;
`
	} else {
		body += `
	fma.rn.f32 %f2, %f0, %f1, %f2;
	mul.f32 %f0, %f0, %f1;
	fma.rn.f32 %f0, %f2, %f1, %f0;
`
	}
	body += `
	sub.u32 %r5, %r5, 1;
	setp.gt.u32 %p1, %r5, 0;
	@%p1 bra CLOOP;
	st.global.f32 [%rd4], %f0;
	exit;
}
`
	return header(name) + prologue + body
}

// streamKernel: strided lattice-style move with a configurable stride
// (memory divergence knob).
func streamKernel(name string, strideLog int) string {
	return header(name) + prologue + fmt.Sprintf(`
	shl.b32 %%r5, %%r3, %d;
	sub.u32 %%r6, %%r4, 1;
	and.b32 %%r5, %%r5, %%r6;       // wrap inside the buffer
	mul.wide.u32 %%rd2, %%r5, 4;
	add.u64 %%rd4, %%rd0, %%rd2;
	ld.global.f32 %%f0, [%%rd4];
	mul.wide.u32 %%rd6, %%r3, 4;
	add.u64 %%rd8, %%rd0, %%rd6;
	mul.wide.u32 %%rd6, %%r4, 4;
	add.u64 %%rd8, %%rd8, %%rd6;
	st.global.f32 [%%rd8+4096], %%f0;  // out partition at word n+1024, past the halo
	exit;
}
`, strideLog)
}

// reduceKernel: per-CTA shared-memory tree reduction (barriers).
func reduceKernel(name string) string {
	return header(name) + `
	.reg .u32 %r<12>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<6>;
	.reg .pred %p<4>;
	.shared .b8 smem[1024];
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	ld.global.f32 %f0, [%rd4];
	shl.b32 %r5, %r2, 2;
	st.shared.f32 [%r5], %f0;
	bar.sync 0;
	mov.u32 %r6, 128;
RLOOP:
	setp.ge.u32 %p1, %r2, %r6;
	@%p1 bra RSKIP;
	shl.b32 %r7, %r6, 2;
	add.u32 %r7, %r5, %r7;
	ld.shared.f32 %f1, [%r7];
	ld.shared.f32 %f2, [%r5];
	add.f32 %f2, %f2, %f1;
	st.shared.f32 [%r5], %f2;
RSKIP:
	bar.sync 0;
	shr.b32 %r6, %r6, 1;
	setp.gt.u32 %p2, %r6, 0;
	@%p2 bra RLOOP;
	setp.ne.u32 %p3, %r2, 0;
	@%p3 exit;
	ld.shared.f32 %f3, [0];
	ld.param.u32 %r8, [n];
	mul.wide.u32 %rd6, %r8, 4;
	add.u64 %rd8, %rd0, %rd6;
	mul.wide.u32 %rd6, %r0, 4;
	add.u64 %rd8, %rd8, %rd6;
	st.global.f32 [%rd8+4096], %f3;  // out partition at word n+1024, past the halo
	exit;
}
`
}

// decayKernel: value-dependent control flow on evolving data. Each thread
// loops 16 + (data[i] & 1) times, then decrements data[i] (saturating at
// one): the trip count of later launches differs from the sampled first
// launch by a small, data-driven amount — the mechanism behind the small but
// nonzero kernel-sampling error the paper reports for such applications.
func decayKernel(name string) string {
	return header(name) + prologue + `
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	ld.global.u32 %r5, [%rd4];
	and.b32 %r6, %r5, 1;
	add.u32 %r6, %r6, 16;
	mov.u32 %f0, 0.0;
	mov.u32 %f1, 1.5;
DLOOP:
	fma.rn.f32 %f0, %f0, %f1, %f1;
	sub.u32 %r6, %r6, 1;
	setp.gt.u32 %p1, %r6, 0;
	@%p1 bra DLOOP;
	setp.le.u32 %p2, %r5, 1;
	@%p2 exit;
	sub.u32 %r5, %r5, 1;
	st.global.u32 [%rd4], %r5;
	exit;
}
`
}

// spmvKernel: banded sparse matrix-vector product, five unrolled taps.
func spmvKernel(name string) string {
	var b strings.Builder
	b.WriteString(header(name))
	b.WriteString(prologue)
	b.WriteString(`
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	mov.u32 %f0, 0.0;
	mov.u32 %f1, 0.2;
`)
	for _, off := range []int{0, 4, 8, 256, 512} {
		fmt.Fprintf(&b, "\tld.global.f32 %%f2, [%%rd4+%d];\n", off)
		b.WriteString("\tfma.rn.f32 %f0, %f2, %f1, %f0;\n")
	}
	b.WriteString(`
	ld.param.u32 %r5, [n];
	mul.wide.u32 %rd6, %r5, 4;
	add.u64 %rd8, %rd4, %rd6;
	st.global.f32 [%rd8+4096], %f0;  // out partition at word n+1024, past the halo
	exit;
}
`)
	return b.String()
}

// --- the suite ----------------------------------------------------------------

// Benchmarks returns the fifteen-entry synthetic suite. Characteristics are
// chosen to match what the paper states or implies per benchmark: ilbdc is
// composed of many unique short kernels launched once (the Figure 5 JIT-
// overhead worst case); omriq/ep are long compute kernels; cg/clvrleaf
// launch few kernels many times; palm and seismic carry value-dependent
// control flow (Figure 9's nonzero sampling error).
func Benchmarks() []*Benchmark {
	mk := func(name string, valueDep bool, ks ...kspec) *Benchmark {
		return &Benchmark{Name: name, ValueDependent: valueDep, kernels: ks}
	}
	l := func(s, m, lg int) [3]int { return [3]int{s, m, lg} }

	var ilbdc []kspec
	for i := 0; i < 20; i++ {
		var src string
		switch i % 3 {
		case 0:
			src = streamKernel(fmt.Sprintf("ilbdc_k%d", i), 2+i%4)
		case 1:
			src = computeKernel(fmt.Sprintf("ilbdc_k%d", i), 2+i%5, false)
		default:
			src = stencilKernel(fmt.Sprintf("ilbdc_k%d", i), 2+i%3)
		}
		ilbdc = append(ilbdc, kspec{name: fmt.Sprintf("ilbdc_k%d", i), ptx: src, launches: l(1, 1, 1), shortK: true})
	}

	return []*Benchmark{
		mk("ostencil", false,
			kspec{name: "st3", ptx: stencilKernel("st3", 3), launches: l(2, 8, 24)}),
		mk("olbm", false,
			kspec{name: "lbm_stream", ptx: streamKernel("lbm_stream", 3), launches: l(2, 6, 16)},
			kspec{name: "lbm_collide", ptx: computeKernel("lbm_collide", 4, false), launches: l(2, 6, 16)},
			kspec{name: "lbm_bc", ptx: stencilKernel("lbm_bc", 2), launches: l(1, 3, 8)}),
		mk("omriq", false,
			kspec{name: "mriq", ptx: computeKernel("mriq", 24, true), launches: l(1, 3, 8)}),
		mk("md", false,
			kspec{name: "md_force", ptx: spmvKernel("md_force"), launches: l(2, 6, 16)},
			kspec{name: "md_update", ptx: triadKernel("md_update", "0.5"), launches: l(2, 6, 16)}),
		mk("palm", true,
			kspec{name: "palm_adv", ptx: decayKernel("palm_adv"), launches: l(3, 6, 12)},
			kspec{name: "palm_diff", ptx: stencilKernel("palm_diff", 3), launches: l(2, 4, 10)}),
		mk("ep", false,
			kspec{name: "ep_rng", ptx: computeKernel("ep_rng", 16, false), launches: l(1, 4, 10)}),
		mk("clvrleaf", false,
			kspec{name: "cl_ideal", ptx: triadKernel("cl_ideal", "1.25"), launches: l(2, 5, 12)},
			kspec{name: "cl_visc", ptx: stencilKernel("cl_visc", 4), launches: l(2, 5, 12)},
			kspec{name: "cl_flux", ptx: streamKernel("cl_flux", 2), launches: l(1, 4, 10)},
			kspec{name: "cl_acc", ptx: triadKernel("cl_acc", "0.75"), launches: l(1, 4, 10)}),
		mk("cg", false,
			kspec{name: "cg_spmv", ptx: spmvKernel("cg_spmv"), launches: l(3, 10, 30)},
			kspec{name: "cg_dot", ptx: reduceKernel("cg_dot"), launches: l(3, 10, 30)}),
		mk("seismic", true,
			kspec{name: "seis_prop", ptx: decayKernel("seis_prop"), launches: l(2, 5, 10)},
			kspec{name: "seis_src", ptx: stencilKernel("seis_src", 3), launches: l(2, 5, 10)}),
		mk("sp", false,
			kspec{name: "sp_x", ptx: triadKernel("sp_x", "0.4"), launches: l(2, 5, 14)},
			kspec{name: "sp_y", ptx: triadKernel("sp_y", "0.6"), launches: l(2, 5, 14)},
			kspec{name: "sp_z", ptx: triadKernel("sp_z", "0.8"), launches: l(2, 5, 14)}),
		mk("csp", false,
			kspec{name: "csp_rhs", ptx: spmvKernel("csp_rhs"), launches: l(2, 5, 12)},
			kspec{name: "csp_solve", ptx: computeKernel("csp_solve", 6, false), launches: l(2, 5, 12)},
			kspec{name: "csp_add", ptx: triadKernel("csp_add", "1.0"), launches: l(1, 4, 10)}),
		mk("miniGhost", false,
			kspec{name: "mg_st27", ptx: stencilKernel("mg_st27", 6), launches: l(2, 5, 12)},
			kspec{name: "mg_st7", ptx: stencilKernel("mg_st7", 3), launches: l(2, 5, 12)},
			kspec{name: "mg_bc", ptx: streamKernel("mg_bc", 4), launches: l(1, 3, 8)},
			kspec{name: "mg_sum", ptx: reduceKernel("mg_sum"), launches: l(1, 3, 8)}),
		mk("ilbdc", false, ilbdc...),
		mk("swim", false,
			kspec{name: "swim_calc1", ptx: stencilKernel("swim_calc1", 4), launches: l(2, 6, 16)},
			kspec{name: "swim_calc2", ptx: triadKernel("swim_calc2", "0.9"), launches: l(2, 6, 16)}),
		mk("bt", false,
			kspec{name: "bt_rhs", ptx: computeKernel("bt_rhs", 8, false), launches: l(2, 5, 12)},
			kspec{name: "bt_xsolve", ptx: triadKernel("bt_xsolve", "0.3"), launches: l(2, 5, 12)},
			kspec{name: "bt_add", ptx: triadKernel("bt_add", "0.7"), launches: l(1, 4, 10)}),
	}
}

// Run executes the benchmark at the given size on the launcher: it loads the
// benchmark's kernels as one JIT-compiled module (the OpenACC path), seeds
// the data buffer, and performs every kernel launch. The launcher is usually
// a *driver.Context, but any driver.Launcher works — in particular the
// nvbitd remote session, which is how a daemon client replays the suite.
func (b *Benchmark) Run(ctx driver.Launcher, size Size) error {
	_, _, err := b.run(ctx, size)
	return err
}

// RunCapture executes like Run and returns the final contents of the data
// buffer — the benchmark's observable output. Byte-for-byte comparison
// against a fault-free capture is how a fault-injection campaign tells a
// silent data corruption from a masked fault (the buffer covers input,
// halo and output partitions, so any surviving corruption is visible).
func (b *Benchmark) RunCapture(ctx driver.Launcher, size Size) ([]byte, error) {
	data, words, err := b.run(ctx, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4*words)
	if err := ctx.MemcpyDtoH(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *Benchmark) run(ctx driver.Launcher, size Size) (data uint64, words int, err error) {
	var src strings.Builder
	for _, k := range b.kernels {
		src.WriteString(k.ptx)
	}
	mod, err := ctx.ModuleLoadPTX(b.Name+".ptx", src.String())
	if err != nil {
		return 0, 0, fmt.Errorf("specaccel: %s: %w", b.Name, err)
	}
	n := size.elems()
	// Buffer layout: input partition [0,n), then a 1024-word halo for
	// multi-tap stencils and banded loads, then the output partition
	// [n+1024, 2n+1024). The halo sits *between* input and output so a
	// kernel's reads (at most input+halo) can never overlap another
	// thread's same-launch writes — the parallel scheduler runs CTAs on
	// concurrent goroutines, so an in-launch read/write overlap would be
	// a real data race, not just nondeterminism. Kernels that update in
	// place (compute, decay) touch only their own thread's word.
	words = 2*n + 1024
	data, err = ctx.MemAlloc(uint64(4 * words))
	if err != nil {
		return 0, 0, err
	}
	seed := make([]byte, 4*words)
	for i := 0; i < words; i++ {
		// Small positive integers: decay kernels read these as loop trip
		// counts, and the float kernels read them as subnormal floats
		// (2..6 times 2⁻¹⁴⁹). On x86 that once made every FFMA over these
		// buffers a microcode assist, a third of the native suite's host
		// time; the simulator's float datapath (internal/gpu/float.go) now
		// costs the same whatever the values.
		seed[4*i] = byte(i%5 + 2)
	}
	if err := ctx.MemcpyHtoD(data, seed); err != nil {
		return 0, 0, err
	}
	for _, k := range b.kernels {
		fn, err := mod.GetFunction(k.name)
		if err != nil {
			return 0, 0, err
		}
		kn := n
		if k.shortK {
			kn = n / 4
		}
		params, err := driver.PackParams(fn, data, uint32(kn))
		if err != nil {
			return 0, 0, err
		}
		const block = 256
		grid := kn / block
		if grid == 0 {
			grid = 1
		}
		for launch := 0; launch < k.launches[size]; launch++ {
			if err := ctx.LaunchKernel(fn, gpu.D1(grid), gpu.D1(block), 0, params); err != nil {
				return 0, 0, fmt.Errorf("specaccel: %s/%s launch %d: %w", b.Name, k.name, launch, err)
			}
		}
	}
	return data, words, nil
}
