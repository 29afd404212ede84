package core_test

import (
	"bytes"
	"errors"
	"testing"

	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
)

// instrcountSession runs specaccel:cg Small under instrcount in a session on
// api through cache and returns the session's attachment and report.
func instrcountSession(t *testing.T, api *driver.API, cache *jitcache.Cache) (*core.NVBit, string) {
	t.Helper()
	inst, err := registry.New("instrcount", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.OpenSession(api, inst.Tool, core.WithJITCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if err := sessionBenchmark("cg").Run(sess.Ctx(), specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if _, err := inst.Report(&report, sess.NVBit()); err != nil {
		t.Fatal(err)
	}
	return sess.NVBit(), report.String()
}

// TestSessionsShareInstrumentedCode: two sessions of one tool on one device
// with one cache, as a daemon serves them, have their tool state at different
// addresses — an allocation outside both lies between them — and the second
// still finds all of its code in the cache and reports what the first did.
func TestSessionsShareInstrumentedCode(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	cache, err := jitcache.New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	first, firstReport := instrcountSession(t, api, cache)
	if _, err := api.Device().Malloc(4096); err != nil {
		t.Fatal(err)
	}
	second, secondReport := instrcountSession(t, api, cache)

	a, b := first.OwnedSpans(), second.OwnedSpans()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("the sessions own %d and %d spans", len(a), len(b))
	}
	for k := range a {
		if a[k].Base == b[k].Base {
			t.Errorf("span %d of both sessions is at %#x", k, a[k].Base)
		}
	}
	if s := first.JITStats(); s.CacheMisses == 0 {
		t.Fatal("the first session missed nothing")
	}
	if s := second.JITStats(); s.CacheMisses != 0 || s.CacheHits == 0 {
		t.Errorf("the second session: %d misses, %d hits; want every lookup a hit", s.CacheMisses, s.CacheHits)
	}
	if firstReport != secondReport {
		t.Errorf("reports differ:\nfirst:\n%s\nsecond:\n%s", firstReport, secondReport)
	}
}

// TestCachedCodeAtAnotherAddress: code cached by a run whose tool state
// landed at one address, materialized for a run whose tool state landed at
// another, puts on the device exactly the bytes an uncached build at that
// second address does — the code space as a whole, trampolines, save routines
// and the application's modules included.
func TestCachedCodeAtAnotherAddress(t *testing.T) {
	for _, fam := range goldenFamilies {
		t.Run(fam.String(), func(t *testing.T) {
			// run executes cg on a fresh device whose first pad bytes of
			// memory are not the tool's, and returns the tool's spans, its
			// statistics and the device's code space.
			run := func(pad uint64, cache *jitcache.Cache) ([]gpu.AllocSpan, core.JITStats, []byte) {
				api, err := driver.New(gpu.DefaultConfig(fam))
				if err != nil {
					t.Fatal(err)
				}
				defer api.Close()
				if pad > 0 {
					if _, err := api.Device().Malloc(pad); err != nil {
						t.Fatal(err)
					}
				}
				nv, _ := instrcountSession(t, api, cache)
				top, err := api.Device().AllocCode(0)
				if err != nil {
					t.Fatal(err)
				}
				code, err := api.Device().ReadCode(0, int(top))
				if err != nil {
					t.Fatal(err)
				}
				return nv.OwnedSpans(), nv.JITStats(), code
			}
			cache, err := jitcache.New("", 0)
			if err != nil {
				t.Fatal(err)
			}
			primed, _, _ := run(0, cache)
			moved, stats, cached := run(4096, cache)
			_, _, uncached := run(4096, nil)
			if primed[0].Base == moved[0].Base {
				t.Fatalf("the counter is at %#x in both runs", moved[0].Base)
			}
			if stats.CacheMisses != 0 {
				t.Fatalf("%d misses materializing at %#x what was cached at %#x", stats.CacheMisses, moved[0].Base, primed[0].Base)
			}
			if !bytes.Equal(cached, uncached) {
				t.Error("code cached at another address differs from an uncached build's")
			}
		})
	}
}

// TestUnownedAddrRefused: an ArgDevPtr address outside every allocation the
// attachment owns — here one word past its counter — fails code generation
// with an error naming the tool function and the argument, and a launch
// that needs the code fails with that error in its chain.
func TestUnownedAddrRefused(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	nv, err := core.Attach(api, synthTool{})
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ctx.ModuleLoadPTX("synth", synthPTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("synth")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := nv.GetInstrs(f)
	if err != nil {
		t.Fatal(err)
	}
	nv.InsertCallArgs(insts[2], "probe32", core.IPointBefore, core.ArgConst32(1), core.ArgDevPtr(ctr))
	if _, err := nv.CodeArtifacts(); err != nil {
		t.Fatalf("an owned address: %v", err)
	}
	if err := nv.ResetInstrumented(f); err != nil {
		t.Fatal(err)
	}
	nv.InsertCallArgs(insts[2], "probe32", core.IPointBefore, core.ArgConst32(1), core.ArgDevPtr(ctr+8))
	_, err = nv.CodeArtifacts()
	var unowned *core.UnownedAddrError
	if !errors.As(err, &unowned) {
		t.Fatalf("an address past the counter: %v, want an *UnownedAddrError", err)
	}
	want := core.UnownedAddrError{Func: "probe32", Arg: 1, Param: "ctr", Addr: ctr + 8}
	if *unowned != want {
		t.Errorf("error %+v, want %+v", *unowned, want)
	}

	out, err := ctx.MemAlloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := driver.PackParams(f, out)
	if err != nil {
		t.Fatal(err)
	}
	err = ctx.LaunchKernel(f, gpu.D1(1), gpu.D1(32), 0, params)
	unowned = nil
	if !errors.Is(err, driver.ErrToolCallback) || !errors.As(err, &unowned) {
		t.Fatalf("launching with an address past the counter: %v, want ErrToolCallback and an *UnownedAddrError", err)
	}
	if *unowned != want {
		t.Errorf("launch error %+v, want %+v", *unowned, want)
	}
}
