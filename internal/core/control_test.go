package core

import (
	"slices"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// cbTool instruments at cuModuleGetFunction time rather than at launch —
// the paper notes instrumentation is "typically done when the kernel is
// launched for the first time, although it can be done at other times
// within the CUDA driver callbacks". The Code Generator still runs at the
// next launch boundary.
type cbTool struct {
	ctr uint64
}

func (t *cbTool) AtInit(n *NVBit) {
	if err := n.RegisterToolPTX(toolSrc); err != nil {
		panic(err)
	}
	var err error
	if t.ctr, err = n.Malloc(8); err != nil {
		panic(err)
	}
}

func (t *cbTool) AtTerm(n *NVBit) {}

func (t *cbTool) AtCUDACall(n *NVBit, exit bool, cbid driver.CBID, name string, p *driver.CallParams) {
	// The resolved CUfunction is populated on the exit callback of
	// cuModuleGetFunction (the enter side has not looked it up yet).
	if !exit || cbid != driver.CBModuleGetFunction || p.Func == nil || !p.Func.Entry {
		return
	}
	if n.IsInstrumented(p.Func) {
		return
	}
	insts, err := n.GetInstrs(p.Func)
	if err != nil {
		panic(err)
	}
	for _, i := range insts {
		n.InsertCallArgs(i, "tally", IPointBefore, ArgConst64(t.ctr))
	}
}

func TestInstrumentAtModuleLoadCallback(t *testing.T) {
	tool := &cbTool{}
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Attach(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("app.ptx", workPTX)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mod.GetFunction("work") // instrumentation requested here
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	data, _ := ctx.MemAlloc(4 * n)
	params, _ := driver.PackParams(fn, data, uint32(n))
	if err := ctx.LaunchKernel(fn, gpu.D1(1), gpu.D1(64), 0, params); err != nil {
		t.Fatal(err)
	}
	count, err := nv.ReadU64(tool.ctr)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("instrumentation requested at cuModuleGetFunction never took effect")
	}
}

// TestEnableBeforeInstrumentIsHarmless: enabling the instrumented version of
// a function that has no instrumentation is a no-op (original code runs).
func TestEnableBeforeInstrumentIsHarmless(t *testing.T) {
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		if err := n.EnableInstrumented(p.Launch.Func, true); err != nil {
			panic(err)
		}
	}
	env.launch(t)
	for i, got := range env.results(t) {
		if want := wantWorkResults(env.n)[i]; got != want {
			t.Fatalf("result[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestEnableToggleIsOnlyASwap: switching a function between its versions at
// every launch is a code swap and nothing else — across 1 000 alternating
// launches no lift, codegen or cache lookup repeats after the first, and
// each toggle copies exactly the function's code once. Per-launch sampling
// and fault-injection runs that instrument one launch rely on this.
func TestEnableToggleIsOnlyASwap(t *testing.T) {
	cache, err := jitcache.New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	tool := &testTool{}
	env := setup(t, sass.Volta, tool, WithJITCache(cache))
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.nv.WriteU64(ctr, 0); err != nil {
		t.Fatal(err)
	}
	instrument := instrumentAll(ctr)
	enable := true
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		instrument(n, p)
		if err := n.EnableInstrumented(p.Launch.Func, enable); err != nil {
			panic(err)
		}
	}
	env.launch(t)
	first := env.nv.JITStats()
	code := len(env.nv.funcs[env.fn].origCode)
	if first.FunctionsLifted != 1 || first.CacheLookups != 1 || first.Visits == 0 || first.SwapBytes != code {
		t.Fatalf("first launch: %+v, want one lift, one lookup and one %d-byte swap", first, code)
	}
	perLaunch, err := env.nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}

	const launches = 1000
	for i := 1; i < launches; i++ {
		enable = i%2 == 0
		env.launch(t)
		s := env.nv.JITStats()
		if s.FunctionsLifted != first.FunctionsLifted || s.TrampolinesEmitted != first.TrampolinesEmitted ||
			s.Visits != first.Visits || s.CacheLookups != first.CacheLookups {
			t.Fatalf("launch %d repeated JIT work: %+v, after the first launch %+v", i, s, first)
		}
		if s.SwapBytes != (i+1)*code {
			t.Fatalf("launch %d: %d bytes swapped, want %d (one %d-byte copy per toggle)",
				i, s.SwapBytes, (i+1)*code, code)
		}
	}
	if total, err := env.nv.ReadU64(ctr); err != nil || total != launches/2*perLaunch {
		t.Fatalf("counter %d (%v), want %d: only the enabled half of the launches counts",
			total, err, launches/2*perLaunch)
	}
}

// TestOnCTAExit: a code version chosen from an OnCTAExit callback runs from
// the launch's next CTA on. With the tally switched in for CTA c only, the
// tally counts in CTA c exactly what it counts there with every CTA
// instrumented and nothing elsewhere, and the results are the native ones.
// Closing the attachment's channels leaves the CTA hook, and the hook leaves
// the scope with its launch. OnCTAExit is refused outside a launch
// callback, a second time in one launch, and under the parallel scheduler.
func TestOnCTAExit(t *testing.T) {
	// perCTA runs one launch of work (four CTAs) with the tally switched in
	// for CTA only, or for every CTA when only < 0, and returns the tally's
	// count in each CTA.
	perCTA := func(only int) []uint64 {
		tool := &testTool{}
		env := setup(t, sass.Volta, tool)
		ctr, err := env.nv.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.nv.WriteU64(ctr, 0); err != nil {
			t.Fatal(err)
		}
		instrument := instrumentAll(ctr)
		var counts []uint64
		var last uint64
		hooks := -1
		tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
			instrument(n, p)
			f := p.Launch.Func
			if only >= 0 {
				if err := n.EnableInstrumented(f, only == 0); err != nil {
					panic(err)
				}
			}
			if err := n.OnCTAExit(func(cta int) {
				v, err := n.ReadU64(ctr)
				if err != nil {
					panic(err)
				}
				counts, last = append(counts, v-last), v
				if only >= 0 && (cta == only-1 || cta == only) {
					if err := n.EnableInstrumented(f, cta == only-1); err != nil {
						panic(err)
					}
				}
			}); err != nil {
				panic(err)
			}
			n.closeChannels()
			hooks = len(n.scope.FlushHooks())
		}
		env.launch(t)
		if hooks != 1 {
			t.Fatalf("CTA %d: %d flush hooks after closing the channels, want the CTA hook", only, hooks)
		}
		if got := len(env.nv.scope.FlushHooks()); got != 0 {
			t.Fatalf("CTA %d: %d flush hooks outlived the launch", only, got)
		}
		for i, got := range env.results(t) {
			if want := wantWorkResults(env.n)[i]; got != want {
				t.Fatalf("CTA %d: result[%d] = %d, want %d", only, i, got, want)
			}
		}
		return counts
	}
	all := perCTA(-1)
	if len(all) != 4 || slices.Contains(all, 0) {
		t.Fatalf("every CTA instrumented: per-CTA tallies %v, want four nonzero", all)
	}
	for only := range all {
		want := make([]uint64, len(all))
		want[only] = all[only]
		if got := perCTA(only); !slices.Equal(got, want) {
			t.Errorf("CTA %d switched in: per-CTA tallies %v, want %v", only, got, want)
		}
	}

	none := func(int) {}
	var second, parallel error
	tool := &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) {
		if err := n.OnCTAExit(none); err != nil {
			panic(err)
		}
		second = n.OnCTAExit(none)
	}}
	env := setup(t, sass.Volta, tool)
	if err := env.nv.OnCTAExit(none); err == nil {
		t.Error("OnCTAExit outside a launch callback succeeded")
	}
	env.launch(t)
	if second == nil {
		t.Error("a second OnCTAExit in one launch succeeded")
	}
	tool = &testTool{onLaunch: func(n *NVBit, p *driver.CallParams) { parallel = n.OnCTAExit(none) }}
	setup(t, sass.Volta, tool, WithScheduler(gpu.SchedulerParallelSM)).launch(t)
	if parallel == nil {
		t.Error("OnCTAExit under the parallel scheduler succeeded")
	}
}

// TestResetThenReinstrument: after ResetInstrumented a tool can instrument
// the same function again from scratch.
func TestResetThenReinstrument(t *testing.T) {
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool)
	ctr, _ = env.nv.Malloc(8)
	tool.onLaunch = instrumentAll(ctr)
	env.launch(t)
	c1, _ := env.nv.ReadU64(ctr)
	if err := env.nv.ResetInstrumented(env.fn); err != nil {
		t.Fatal(err)
	}
	// The standing instrumentAll closure re-instruments at the next
	// launch, which must succeed post-reset.
	env.reloadData(t)
	env.launch(t)
	c2, _ := env.nv.ReadU64(ctr)
	if c2 != 2*c1 {
		t.Fatalf("re-instrumented count %d, want %d", c2, 2*c1)
	}
	for i, got := range env.results(t) {
		if want := wantWorkResults(env.n)[i]; got != want {
			t.Fatalf("result[%d] = %d, want %d", i, got, want)
		}
	}
}
