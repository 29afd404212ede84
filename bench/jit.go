package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/nvbit"
)

// jitApp is the application jit_cold and jit_warm run: it loads each
// generated kernel as its own module and launches it once as one warp with
// n=0, so almost all of the run is PTX compilation, lifting, code generation
// and the instrumentation cache.
type jitApp struct {
	e       *env
	kernels []genKernel
	warm    bool
	dir     string // warm: the cache directory primed in set-up; cold: none
	native  nativeRef
	counts  simCounts
}

// jitAppBufBytes covers every offset a generated load or store can reach
// from thread 0, were a thread ever to pass the bounds check.
const jitAppBufBytes = 4 * 1024

// appRun is what one run of the application left behind.
type appRun struct {
	out     []byte // the data buffer, read back
	st      gpusim.Stats
	js      nvbit.JITStats
	counted uint64 // thread instructions instrcount counted
}

// run executes the application once on a fresh device: natively when cache
// is nil, otherwise under instrcount at every instruction with that cache.
func (a *jitApp) run(sc scope, cache *nvbit.JITCache) (r appRun, err error) {
	var tool *instrcount.Tool
	var attach nvbit.Tool
	if cache != nil {
		tool = instrcount.New()
		attach = tool
	}
	api, ctx, nv, err := openDevice(sc, attach, nvbit.WithJITCache(cache))
	if err != nil {
		return r, err
	}
	defer api.Close()
	l := traced(ctx, sc, false, nv)
	buf, err := l.MemAlloc(jitAppBufBytes)
	if err != nil {
		return r, err
	}
	for _, k := range a.kernels {
		mod, err := l.ModuleLoadPTX(k.Name, k.Source)
		if err != nil {
			return r, err
		}
		fn, err := mod.GetFunction(k.Name)
		if err != nil {
			return r, err
		}
		params, err := driver.PackParams(fn, buf, uint32(0))
		if err != nil {
			return r, err
		}
		if err := l.LaunchKernel(fn, gpusim.D1(1), gpusim.D1(32), 0, params); err != nil {
			return r, err
		}
	}
	r.out = make([]byte, jitAppBufBytes)
	if err := l.MemcpyDtoH(r.out, buf); err != nil {
		return r, err
	}
	r.st = api.Device().Stats()
	if nv != nil {
		r.js, r.counted = nv.JITStats(), tool.Total(nv)
	}
	return r, nil
}

func setupJIT(e *env, warm bool) (instance, error) {
	a := &jitApp{e: e, kernels: generateKernels(e.seed), warm: warm}
	native, err := a.run(scope{}, nil)
	if err != nil {
		return nil, fmt.Errorf("native pass: %w", err)
	}
	a.native = nativeRef{out: native.out, st: native.st}
	if warm {
		a.dir = e.scratch("jit-warm-cache")
		if err := os.RemoveAll(a.dir); err != nil {
			return nil, err
		}
		cache, err := nvbit.NewJITCache(a.dir, 0)
		if err != nil {
			return nil, err
		}
		if _, err := a.run(scope{}, cache); err != nil {
			return nil, fmt.Errorf("priming pass: %w", err)
		}
	}
	return a, nil
}

func (a *jitApp) iterate(i int, t *tracer) (iterResult, error) {
	sc, done := t.root(i)
	t0 := time.Now()
	// A new cache object every iteration, so the memory tier starts empty: a
	// warm iteration is served by the disk tier, as a re-run of a process
	// is. A cold iteration's cache has no disk tier at all: writing one made
	// consecutive runs 10 to 40% slower on ext4 (dirty-page throttling), so
	// the disk write path is priced by the panel's jitcache.put_us instead.
	var cache *nvbit.JITCache
	if err := sc.do(layerJITCache, "nvbit.NewJITCache", func(scope) (err error) {
		cache, err = nvbit.NewJITCache(a.dir, 0)
		return err
	}); err != nil {
		return iterResult{}, err
	}
	r, err := a.run(sc, cache)
	if err != nil {
		return iterResult{}, err
	}
	st, js := r.st, r.js
	d := time.Since(t0)
	done()

	a.counts = simOf(a.native.st, st)
	ok := true
	if !bytes.Equal(r.out, a.native.out) {
		a.e.notef("instrumented output differs from the native run")
		ok = false
	}
	if r.counted != a.native.st.ThreadInstrs {
		a.e.notef("instrcount counted %d thread instructions, native executed %d", r.counted, a.native.st.ThreadInstrs)
		ok = false
	}
	if a.warm && (js.CacheHits != js.CacheLookups || js.CacheLookups == 0 || js.CodeGen != 0) {
		a.e.notef("warm run: %d of %d cache lookups hit, %v spent generating code; want all and none",
			js.CacheHits, js.CacheLookups, js.CodeGen)
		ok = false
	}
	if !a.warm && (js.CacheHits != 0 || js.CodeGen == 0) {
		a.e.notef("cold run: %d cache hits, %v spent generating code; want none and some", js.CacheHits, js.CodeGen)
		ok = false
	}
	failed := 0
	if !ok {
		failed = 1
	}
	return iterResult{wall: d, ops: 1, failed: failed, window: d}, nil
}

func (a *jitApp) sim() simCounts { return a.counts }

func (a *jitApp) close() {
	if a.dir != "" {
		os.RemoveAll(a.dir)
	}
}
