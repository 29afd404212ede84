package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
)

// coldKernelPTX generates a kernel of body PTX instructions (loads, stores,
// fma, mad, add and guarded forward branches over sixteen registers) behind a
// bounds check, so a launch with n=0 retires the warp at once and what is left
// of the launch is the JIT. Different seeds give different bytes of the same
// size, so every kernel misses the cache.
func coldKernelPTX(name string, seed int64, body int) string {
	rng := rand.New(rand.NewSource(seed))
	r := func() string { return fmt.Sprintf("%%r%d", 5+rng.Intn(11)) }
	f := func() string { return fmt.Sprintf("%%f%d", rng.Intn(8)) }
	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry %s(.param .u64 data, .param .u32 n)\n{\n", name)
	b.WriteString(`	.reg .u32 %r<16>;
	.reg .u64 %rd<6>;
	.reg .f32 %f<8>;
	.reg .pred %p<3>;
	mov.u32 %r2, %tid.x;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r2, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r2, 4;
	add.u64 %rd4, %rd0, %rd2;
`)
	labels := 0
	for k := 0; k < body; k++ {
		switch rng.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "\tld.global.u32 %s, [%%rd4+%d];\n", r(), 4*rng.Intn(256))
		case 1:
			fmt.Fprintf(&b, "\tst.global.f32 [%%rd4+%d], %s;\n", 4*rng.Intn(256), f())
		case 2, 3:
			fmt.Fprintf(&b, "\tfma.rn.f32 %s, %s, %s, %s;\n", f(), f(), f(), f())
		case 4, 5:
			fmt.Fprintf(&b, "\tmad.lo.u32 %s, %s, %s, %s;\n", r(), r(), r(), r())
		case 6:
			fmt.Fprintf(&b, "\tadd.u32 %s, %s, %s;\n", r(), r(), r())
		case 7:
			fmt.Fprintf(&b, "\tsetp.lt.u32 %%p1, %s, %s;\n\t@%%p1 bra L%d;\n", r(), r(), labels)
			fmt.Fprintf(&b, "\tadd.f32 %s, %s, %s;\nL%d:\n", f(), f(), f(), labels)
			labels++
			k += 2
		}
	}
	b.WriteString("\texit;\n}\n")
	return b.String()
}

// coldJITAllocBudget and coldJITByteBudget are the most heap objects and
// bytes the cold JIT may allocate per lifted instruction between the launch
// callback's GetInstrs and the end of finalize. What it allocates is per
// function: the lift's arrays, the function's plan table (a call array and
// argument chunks of one argument per instruction, which InsertCallArgs
// appends to), the instrumented copy of its code and its encoded cache entry.
// Planning, building and materializing reuse the attachment's workspace, and
// planning runs no liveness fixed point. Measured 0.106 objects and 372
// bytes, the same under -race; the budgets are that plus 2 %. One heap
// object per instruction or per call would add 1. While an Instr carried its
// own copy of its instruction and a device decoded code in 1024-word caches,
// it was 0.104 objects and 472 bytes; while each function's planning ran the
// fixed point and allocated its own visit and artifact arrays, 0.145 objects
// and 820 bytes.
const (
	coldJITAllocBudget = 0.108
	coldJITByteBudget  = 379
)

// TestColdJITAllocBudget pins the cold path's allocation: a generated kernel
// of at least 400 instructions, instrumented at every instruction by
// instrcount with a memory-only cache attached, first launch.
func TestColdJITAllocBudget(t *testing.T) {
	const runs = 4
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	cache, err := jitcache.New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := core.Attach(api, instrcount.New(), core.WithJITCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := ctx.MemAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	var fns []*driver.Function
	for k := 0; k <= runs; k++ {
		name := fmt.Sprintf("cold%d", k)
		mod, err := ctx.ModuleLoadPTX(name, coldKernelPTX(name, int64(k+1), 420))
		if err != nil {
			t.Fatal(err)
		}
		fn, err := mod.GetFunction(name)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	params, err := driver.PackParams(fns[0], data, uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	launch := func(fn *driver.Function) {
		if err := ctx.LaunchKernel(fn, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
			t.Fatal(err)
		}
	}
	// The first launch also compiles and loads the tool functions, and
	// sizes the workspace; it is not measured.
	launch(fns[0])
	before := nv.JITStats()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, fn := range fns[1:] {
		launch(fn)
	}
	runtime.ReadMemStats(&m1)
	st := nv.JITStats()
	if st.CacheHits != 0 || st.TrampolinesEmitted != st.InstrsLifted {
		t.Fatalf("not a cold full instrumentation: %d cache hits, %d trampolines for %d instructions",
			st.CacheHits, st.TrampolinesEmitted, st.InstrsLifted)
	}
	instrs := float64(st.InstrsLifted - before.InstrsLifted)
	if instrs/runs < 400 {
		t.Fatalf("kernels average %.0f instructions, want at least 400", instrs/runs)
	}
	objects := float64(m1.Mallocs-m0.Mallocs) / instrs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / instrs
	t.Logf("%d first launches of %.0f instructions: %.4f heap objects and %.1f bytes per lifted instruction", runs, instrs/runs, objects, bytes)
	if objects > coldJITAllocBudget {
		t.Errorf("cold JIT allocates %.4f heap objects per lifted instruction, budget %.3f", objects, coldJITAllocBudget)
	}
	if bytes > coldJITByteBudget {
		t.Errorf("cold JIT allocates %.0f bytes per lifted instruction, budget %d", bytes, coldJITByteBudget)
	}
}

// warmHitObjectBudget and warmHitByteBudget are the most heap objects and
// bytes a first launch served from the cache's disk tier may allocate per
// materialized instruction, everything from the launch callback's GetInstrs
// to the end of finalize included. A hit makes a handful of objects per
// function (the lift's arrays, the plan table, the entry read into one
// buffer) and none per site or per call, and decodes into the attachment's
// workspace: measured 0.123 objects and 341 bytes, the same under -race.
// The budgets are that plus 2 %. While an Instr carried its own copy of its
// instruction and a device decoded code in 1024-word caches, it allocated
// 0.12 objects and 441 bytes; while every hit decoded into new arrays, 0.14
// objects and 553 bytes; while a call was three heap objects and an Instr 128
// bytes, 3.13 objects and 674 bytes.
const (
	warmHitObjectBudget = 0.125
	warmHitByteBudget   = 348
)

// TestWarmHitAllocBudget pins what a disk-tier hit allocates: the kernels of
// TestColdJITAllocBudget, generated once into a cache directory, then
// launched for the first time on a fresh device through a fresh cache object
// over that directory, as a re-run of a process does.
func TestWarmHitAllocBudget(t *testing.T) {
	const runs = 4
	dir := t.TempDir()
	// launchAll loads every kernel and launches each once under instrcount
	// with a new cache over dir; measured wraps all launches but the first,
	// which also compiles and loads the tool functions.
	launchAll := func(measured func(launch func())) core.JITStats {
		api, err := driver.New(gpu.DefaultConfig(sass.Volta))
		if err != nil {
			t.Fatal(err)
		}
		defer api.Close()
		cache, err := jitcache.New(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := core.Attach(api, instrcount.New(), core.WithJITCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := api.CtxCreate()
		if err != nil {
			t.Fatal(err)
		}
		data, err := ctx.MemAlloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		var fns []*driver.Function
		for k := 0; k <= runs; k++ {
			name := fmt.Sprintf("cold%d", k)
			mod, err := ctx.ModuleLoadPTX(name, coldKernelPTX(name, int64(k+1), 420))
			if err != nil {
				t.Fatal(err)
			}
			fn, err := mod.GetFunction(name)
			if err != nil {
				t.Fatal(err)
			}
			fns = append(fns, fn)
		}
		params, err := driver.PackParams(fns[0], data, uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		launch := func(fn *driver.Function) {
			if err := ctx.LaunchKernel(fn, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
				t.Fatal(err)
			}
		}
		launch(fns[0])
		first := nv.JITStats()
		measured(func() {
			for _, fn := range fns[1:] {
				launch(fn)
			}
		})
		st := nv.JITStats()
		st.InstrsLifted -= first.InstrsLifted
		return st
	}
	launchAll(func(launch func()) { launch() })

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	st := launchAll(func(launch func()) {
		runtime.ReadMemStats(&before)
		launch()
		runtime.ReadMemStats(&after)
	})
	if st.CacheHits != st.CacheLookups || st.CacheLookups != runs+1 || st.CodeGen != 0 || st.TrampolinesEmitted == 0 {
		t.Fatalf("not a warm run: %d of %d lookups hit, %v generating code, %d trampolines",
			st.CacheHits, st.CacheLookups, st.CodeGen, st.TrampolinesEmitted)
	}
	instrs := float64(st.InstrsLifted)
	if instrs/runs < 400 {
		t.Fatalf("kernels average %.0f instructions, want at least 400", instrs/runs)
	}
	objects := float64(after.Mallocs-before.Mallocs) / instrs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / instrs
	t.Logf("%d first launches of %.0f instructions served from disk: %.4f heap objects and %.1f bytes per instruction", runs, instrs/runs, objects, bytes)
	if objects > warmHitObjectBudget {
		t.Errorf("a disk-tier hit allocates %.4f heap objects per instruction, budget %.3f", objects, warmHitObjectBudget)
	}
	if bytes > warmHitByteBudget {
		t.Errorf("a disk-tier hit allocates %.0f bytes per instruction, budget %d", bytes, warmHitByteBudget)
	}
}
