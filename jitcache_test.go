package main_test

import (
	"bytes"
	"sync"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/nvbit"
)

// The instrumentation cache is a pure performance optimization, so it rides
// the same end-to-end guarantee as the liveness save sets: for every in-tree
// tool and both schedulers, the tool's report must be byte-identical whether
// the code was freshly generated (uncached), generated into a cold cache, or
// materialized from a warm one. The warm run uses a *fresh* cache instance
// over the same directory, so its hits come from the persistent disk tier —
// exactly what a second process sees.

func newCache(t *testing.T, dir string) *nvbit.JITCache {
	t.Helper()
	c, err := nvbit.NewJITCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDifferentialJITCache: uncached vs cold-cached vs warm-cached output for
// all six tools under both schedulers.
func TestDifferentialJITCache(t *testing.T) {
	scheds := map[string]gpusim.SchedulerKind{
		"sequential": gpusim.SchedulerSequential,
		"parallel":   gpusim.SchedulerParallelSM,
	}
	for _, toolName := range diffTools {
		for schedName, sched := range scheds {
			toolName, schedName, sched := toolName, schedName, sched
			t.Run(toolName+"/"+schedName, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				uncached, _ := diffRun(t, toolName, nvbit.InjectTrampoline, sched)
				cold, _ := diffRun(t, toolName, nvbit.InjectTrampoline, sched, nvbit.WithJITCache(newCache(t, dir)))
				warm, _ := diffRun(t, toolName, nvbit.InjectTrampoline, sched, nvbit.WithJITCache(newCache(t, dir)))
				if uncached == "" {
					t.Fatal("empty report")
				}
				if cold != uncached {
					t.Errorf("cold-cached output diverges from uncached:\nuncached:\n%s\ncold:\n%s", uncached, cold)
				}
				if warm != uncached {
					t.Errorf("warm-cached output diverges from uncached:\nuncached:\n%s\nwarm:\n%s", uncached, warm)
				}
			})
		}
	}
}

// TestJITCacheConcurrentAttaches races N simultaneous attaches — each with
// its own device and framework instance — against one shared cache, under
// both schedulers. Singleflight must coalesce the racing JITs so each unique
// function's object is generated exactly once, and every attach
// must end up with the same instruction count and byte-identical device code.
// The root package runs under -race in CI, which is the point.
func TestJITCacheConcurrentAttaches(t *testing.T) {
	const attaches = 8
	scheds := map[string]gpusim.SchedulerKind{
		"sequential": gpusim.SchedulerSequential,
		"parallel":   gpusim.SchedulerParallelSM,
	}
	for schedName, sched := range scheds {
		schedName, sched := schedName, sched
		t.Run(schedName, func(t *testing.T) {
			cache := newCache(t, "") // memory-only: all sharing is in-process
			counts := make([]uint64, attaches)
			codes := make([][]byte, attaches)
			errs := make([]error, attaches)
			var wg sync.WaitGroup
			for g := 0; g < attaches; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					api, err := gpusim.New(gpusim.Volta)
					if err != nil {
						errs[g] = err
						return
					}
					tool := &quickCounter{}
					nv, err := nvbit.Attach(api, tool,
						nvbit.WithScheduler(sched), nvbit.WithJITCache(cache))
					if err != nil {
						errs[g] = err
						return
					}
					ctx, err := api.CtxCreate()
					if err != nil {
						errs[g] = err
						return
					}
					mod, err := ctx.ModuleLoadPTX("saxpy", quickSaxpyPTX)
					if err != nil {
						errs[g] = err
						return
					}
					f, err := mod.GetFunction("saxpy")
					if err != nil {
						errs[g] = err
						return
					}
					const n = 1024
					x, _ := ctx.MemAlloc(4 * n)
					y, _ := ctx.MemAlloc(4 * n)
					params, err := gpusim.PackParams(f, x, y, float32(2.0), uint32(n))
					if err != nil {
						errs[g] = err
						return
					}
					if err := ctx.LaunchKernel(f, gpusim.D1(n/256), gpusim.D1(256), 0, params); err != nil {
						errs[g] = err
						return
					}
					counts[g], err = nv.ReadU64(tool.counter)
					if err != nil {
						errs[g] = err
						return
					}
					// The instrumented body (with its trampoline jumps) as
					// resident on this attach's device.
					codes[g], errs[g] = api.Device().ReadCode(f.Addr, f.NumWords)
				}()
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("attach %d: %v", g, err)
				}
			}
			for g := 1; g < attaches; g++ {
				if counts[g] != counts[0] {
					t.Errorf("attach %d counted %d instructions, attach 0 counted %d", g, counts[g], counts[0])
				}
				if !bytes.Equal(codes[g], codes[0]) {
					t.Errorf("attach %d has different instrumented code bytes than attach 0", g)
				}
			}
			if counts[0] == 0 {
				t.Fatal("no instructions counted")
			}
			st := cache.Stats()
			// One unique function → one object; the other attaches' lookups
			// hit or coalesce, never regenerate.
			if st.Generations != 1 {
				t.Errorf("cache generated %d objects for one unique function, want 1 (stats %+v)", st.Generations, st)
			}
			if got := st.MemHits + st.DiskHits + st.Coalesced; got != attaches-1 {
				t.Errorf("hits+coalesced = %d, want %d (stats %+v)", got, attaches-1, st)
			}
		})
	}
}
