// Session-model tests: concurrent sessions must behave exactly like the
// standalone attachments they replace — identical record streams, strict
// cross-session isolation, and no resource leaks across open/close cycles.
// (External test package: the assertions drive real tools through the
// public nvbit facade.)
package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/itrace"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

func sessionBenchmark(name string) *specaccel.Benchmark {
	for _, b := range specaccel.Benchmarks() {
		if b.Name == name {
			return b
		}
	}
	panic("no benchmark " + name)
}

// canonicalTraceHash hashes the multiset of trace records in a canonical
// order. The parallel scheduler delivers records from concurrent SM
// workers, so arrival order is schedule-dependent; record *content* is
// not, and content is what sessions must reproduce.
func canonicalTraceHash(recs []itrace.Record) [32]byte {
	sorted := append([]itrace.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.KernelID != b.KernelID {
			return a.KernelID < b.KernelID
		}
		if a.WarpID != b.WarpID {
			return a.WarpID < b.WarpID
		}
		if a.InstIdx != b.InstIdx {
			return a.InstIdx < b.InstIdx
		}
		return a.ExecMask < b.ExecMask
	})
	h := sha256.New()
	for _, r := range sorted {
		var buf [16]byte
		binary.LittleEndian.PutUint32(buf[0:], r.KernelID)
		binary.LittleEndian.PutUint32(buf[4:], r.InstIdx)
		binary.LittleEndian.PutUint32(buf[8:], r.WarpID)
		binary.LittleEndian.PutUint32(buf[12:], r.ExecMask)
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// traceSession runs one itrace session over a benchmark on a fresh device
// and returns the canonical hash of its record stream.
func traceSession(bench string, sched gpu.SchedulerKind, cache *jitcache.Cache) ([32]byte, error) {
	var zero [32]byte
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		return zero, err
	}
	defer api.Close()
	tool := itrace.New(1 << 20)
	opts := []nvbit.Option{nvbit.WithScheduler(sched)}
	if cache != nil {
		opts = append(opts, nvbit.WithJITCache(cache))
	}
	sess, err := nvbit.OpenSession(api, tool, opts...)
	if err != nil {
		return zero, err
	}
	if err := sessionBenchmark(bench).Run(sess.Ctx(), specaccel.Small); err != nil {
		return zero, err
	}
	if err := sess.Close(); err != nil {
		return zero, err
	}
	if d := tool.Dropped(); d != 0 {
		return zero, fmt.Errorf("%s: %d records dropped", bench, d)
	}
	if len(tool.Records) == 0 {
		return zero, fmt.Errorf("%s: empty trace", bench)
	}
	return canonicalTraceHash(tool.Records), nil
}

// TestConcurrentSessionStreamsByteIdentical runs N sessions concurrently —
// each with its own device, sharing one JIT cache — and requires every
// session's record stream to hash identically to a standalone run of the
// same tool/benchmark pair, under both schedulers.
func TestConcurrentSessionStreamsByteIdentical(t *testing.T) {
	benches := []string{"ostencil", "cg", "olbm"}
	for schedName, sched := range map[string]gpu.SchedulerKind{
		"sequential": gpu.SchedulerSequential,
		"parallel":   gpu.SchedulerParallelSM,
	} {
		t.Run(schedName, func(t *testing.T) {
			want := make(map[string][32]byte, len(benches))
			for _, b := range benches {
				h, err := traceSession(b, sched, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[b] = h
			}
			cache, err := jitcache.New("", 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][32]byte, len(benches))
			errs := make([]error, len(benches))
			var wg sync.WaitGroup
			for i, b := range benches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = traceSession(b, sched, cache)
				}()
			}
			wg.Wait()
			for i, b := range benches {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != want[b] {
					t.Errorf("%s: concurrent-session stream hash %x differs from standalone %x", b, got[i], want[b])
				}
			}
		})
	}
}

// instrSession counts thread-level instructions for one benchmark through
// a session on the given driver (launching on the session's own context).
func instrSession(api *driver.API, bench string) (uint64, error) {
	tool := instrcount.New()
	sess, err := nvbit.OpenSession(api, tool)
	if err != nil {
		return 0, err
	}
	if err := sessionBenchmark(bench).Run(sess.Ctx(), specaccel.Small); err != nil {
		return 0, err
	}
	if err := sess.Close(); err != nil {
		return 0, err
	}
	return tool.AppInstrs(sess.NVBit()), nil
}

// TestSharedDeviceSessionIsolation runs three tenants concurrently on ONE
// device — two sessions and a process-wide Attach on scope 0 — and requires
// each tool's count to equal its solo-run count: no tenant may observe
// another scope's launches, each keeps its own collector, and scope 0 still
// takes exactly one preloaded tool.
func TestSharedDeviceSessionIsolation(t *testing.T) {
	solo := make(map[string]uint64)
	for _, b := range []string{"cg", "olbm", "ostencil"} {
		api, err := driver.New(gpu.DefaultConfig(sass.Volta))
		if err != nil {
			t.Fatal(err)
		}
		n, err := instrSession(api, b)
		api.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s: zero instructions", b)
		}
		solo[b] = n
	}

	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()

	preloaded := instrcount.New()
	nv, err := nvbit.Attach(api, preloaded, nvbit.WithTracing(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = nvbit.Attach(api, instrcount.New())
	if err == nil || err.Error() != "driver: an interposer library is already injected" {
		t.Fatalf("second scope-0 attach: %v, want the single-preload rejection", err)
	}
	appCtx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	got := make(map[string]uint64, 3)
	errs := make(map[string]error, 3)
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := sessionBenchmark("ostencil").Run(appCtx, specaccel.Small)
		mu.Lock()
		got["ostencil"], errs["ostencil"] = preloaded.AppInstrs(nv), err
		mu.Unlock()
	}()
	for _, b := range []string{"cg", "olbm"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := instrSession(api, b)
			mu.Lock()
			got[b], errs[b] = n, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
	}
	for b, n := range got {
		if n != solo[b] {
			t.Errorf("%s: shared-device tenant counted %d instructions, solo run counted %d", b, n, solo[b])
		}
	}

	// Scope 0 traced, the sessions did not: its collector holds its own
	// kernels and nobody else's.
	kernels := map[string]bool{}
	for _, r := range nv.Profiler().Records() {
		if r.Kind == nvbit.KindKernel {
			kernels[r.Name] = true
		}
	}
	if len(kernels) == 0 {
		t.Fatal("scope 0's collector recorded no kernels")
	}
	for name := range kernels {
		if name != "st3" { // ostencil's only kernel
			t.Errorf("scope 0's collector recorded %s, a session's kernel", name)
		}
	}
}

// TestSessionCloseReleasesResources cycles sessions open/closed on one
// driver and checks hooks, flush hooks and device allocations return to
// baseline every time, and that the driver keeps no closed session's context
// reachable — a daemon's pool device outlives every session it serves.
func TestSessionCloseReleasesResources(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	dev := api.Device()

	baseHooks := api.HookCount()
	baseAllocs := len(dev.Allocations())

	const cycles = 100
	collected := make(chan struct{}, cycles)
	// One cycle per call, so nothing of it stays live on this frame.
	cycle := func(i int) {
		tool := itrace.New(1 << 12)
		sess, err := nvbit.OpenSession(api, tool)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		runtime.SetFinalizer(sess.Ctx(), func(*driver.Context) { collected <- struct{}{} })
		if api.HookCount() != baseHooks+1 {
			t.Fatalf("cycle %d: hook count %d while open, want %d", i, api.HookCount(), baseHooks+1)
		}
		nv := sess.NVBit()
		if nv.LaunchFlushHook() == nil {
			t.Fatalf("cycle %d: no flush hook while the channel is open", i)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if got := api.HookCount(); got != baseHooks {
			t.Fatalf("cycle %d: %d hooks leaked", i, got-baseHooks)
		}
		if nv.LaunchFlushHook() != nil {
			t.Fatalf("cycle %d: flush hook leaked", i)
		}
		if got := len(dev.Allocations()); got != baseAllocs {
			t.Fatalf("cycle %d: %d device allocations leaked", i, got-baseAllocs)
		}
	}
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	runtime.GC()
	timeout := time.After(10 * time.Second)
	for n := 0; n < cycles; n++ {
		select {
		case <-collected:
		case <-timeout:
			t.Fatalf("%d of %d closed sessions' contexts are still reachable from the driver", cycles-n, cycles)
		}
	}

	// A cycle that actually launches: hooks and channel state must still
	// unwind (the workload's own data buffer legitimately stays).
	tool := itrace.New(1 << 16)
	sess, err := nvbit.OpenSession(api, tool)
	if err != nil {
		t.Fatal(err)
	}
	if err := sessionBenchmark("ostencil").Run(sess.Ctx(), specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := api.HookCount(); got != baseHooks {
		t.Errorf("after launching cycle: %d hooks leaked", got-baseHooks)
	}
	if sess.NVBit().LaunchFlushHook() != nil {
		t.Error("after launching cycle: flush hook leaked")
	}
	if len(tool.Records) == 0 {
		t.Error("launching cycle produced no records")
	}
}

// initPanics is a tool whose AtInit fails after it has opened its channel.
type initPanics struct{ nvbit.Tool }

func (t initPanics) AtInit(n *nvbit.NVBit) {
	t.Tool.AtInit(n)
	panic("AtInit failed after OpenChannel")
}

// TestFailedAtInitReleasesChannel: an attachment whose AtInit does not
// complete leaves nothing behind — the channel it opened is closed by the
// framework, so the device's allocation table is what it was (the receiver
// goroutine has exited once Close returns).
func TestFailedAtInitReleasesChannel(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	before := api.Device().Allocations()
	for i := 0; i < 3; i++ {
		if _, err := nvbit.Attach(api, initPanics{itrace.New(1 << 12)}); err == nil {
			t.Fatal("Attach succeeded although AtInit panicked")
		}
		if got := api.Device().Allocations(); !slices.Equal(got, before) {
			t.Fatalf("attempt %d: device allocations %v, want %v", i, got, before)
		}
	}
}

// launchTool runs onLaunch in the enter callback of every kernel launch.
type launchTool struct {
	onLaunch func(n *nvbit.NVBit)
}

func (launchTool) AtInit(*nvbit.NVBit) {}
func (launchTool) AtTerm(*nvbit.NVBit) {}
func (t launchTool) AtCUDACall(n *nvbit.NVBit, exit bool, cbid nvbit.CBID, _ string, _ *nvbit.CallParams) {
	if !exit && cbid == nvbit.CBLaunchKernel {
		t.onLaunch(n)
	}
}

// storePTX holds two kernels that store each thread's index at out.
const storePTX = `
.visible .entry ka(.param .u64 out)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [out];
	mov.u32 %r0, %tid.x;
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	st.global.u32 [%rd0], %r0;
	exit;
}
.visible .entry kb(.param .u64 out)
{
	.reg .u32 %r<2>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd0, [out];
	mov.u32 %r0, %tid.x;
	mul.wide.u32 %rd2, %r0, 4;
	add.u64 %rd0, %rd0, %rd2;
	st.global.u32 [%rd0], %r0;
	exit;
}
`

// storeKernels loads storePTX on ctx and returns its two kernels and the
// parameter block both take: a buffer for one block of up to 32 threads.
func storeKernels(t *testing.T, ctx *driver.Context) (ka, kb *driver.Function, params []byte) {
	t.Helper()
	mod, err := ctx.ModuleLoadPTX("store.ptx", storePTX)
	if err != nil {
		t.Fatal(err)
	}
	if ka, err = mod.GetFunction("ka"); err == nil {
		kb, err = mod.GetFunction("kb")
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.MemAlloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if params, err = driver.PackParams(ka, out); err != nil {
		t.Fatal(err)
	}
	return ka, kb, params
}

// TestClosedSessionRunsNoCTAExit: a tool sets OnCTAExit and its launch's
// enter callback then fails, so that launch never runs and never reaches its
// exit callback. Once the session is closed, a launch on its context is
// native and runs none of the closed tool's callbacks.
func TestClosedSessionRunsNoCTAExit(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	calls := 0
	sess, err := nvbit.OpenSession(api, launchTool{func(n *nvbit.NVBit) {
		if err := n.OnCTAExit(func(int) { calls++ }); err != nil {
			panic(err)
		}
		panic("enter callback fails after OnCTAExit")
	}})
	if err != nil {
		t.Fatal(err)
	}
	ka, _, params := storeKernels(t, sess.Ctx())
	if err := sess.Ctx().LaunchKernel(ka, gpu.D1(4), gpu.D1(32), 0, params); !errors.Is(err, nvbit.ErrToolCallback) {
		t.Fatalf("launch whose enter callback fails: %v, want ErrToolCallback", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Ctx().LaunchKernel(ka, gpu.D1(4), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("the closed session's OnCTAExit callback ran %d times, want 0", calls)
	}
}

// TestClosedSessionLaunchRecordIsNative: the device refuses an instrumented
// launch (its block is too large), so the launch emits no kernel record.
// Once the session is closed, the kernel record of a kernel that was never
// instrumented says it ran native code.
func TestClosedSessionLaunchRecordIsNative(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	sess, err := nvbit.OpenSession(api, instrcount.New(), nvbit.WithTracing(0))
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, params := storeKernels(t, sess.Ctx())
	if err := sess.Ctx().LaunchKernel(ka, gpu.D1(1), gpu.D1(2048), 0, params); err == nil {
		t.Fatal("the device ran a block of 2048 threads")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Ctx().LaunchKernel(kb, gpu.D1(1), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sess.Profiler().Records() {
		if r.Kind == nvbit.KindKernel && r.Name == "kb" {
			found = true
			if r.Instrumented {
				t.Error("kb's kernel record says Instrumented, but kb never ran instrumented code")
			}
		}
	}
	if !found {
		t.Fatal("no kernel record for kb")
	}
}

// TestSessionCloseIdempotent double-closes and verifies the API stays
// usable for new sessions afterwards.
func TestSessionCloseIdempotent(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	sess, err := nvbit.OpenSession(api, instrcount.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	n, err := instrSession(api, "ostencil")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("post-close session counted nothing")
	}
}

// TestAttachAndSessionAreOneAttachment runs the same tool over the same
// benchmark bound to scope 0 (Attach, launching on an application context)
// and bound to a fresh scope (OpenSession) and requires the two attachments
// to be indistinguishable from outside: byte-identical tool reports and the
// same sequence of activity-record kinds in the scope's collector.
func TestAttachAndSessionAreOneAttachment(t *testing.T) {
	type attachment struct {
		report string
		kinds  []nvbit.RecordKind
	}
	run := func(t *testing.T, tool, bench string, session bool) attachment {
		t.Helper()
		api, err := driver.New(gpu.DefaultConfig(sass.Volta))
		if err != nil {
			t.Fatal(err)
		}
		var o registry.Options
		if slices.Contains(registry.ReadsOf(tool), "policy") {
			o.Policy = "block"
		}
		inst, err := registry.New(tool, o)
		if err != nil {
			t.Fatal(err)
		}
		var nv *nvbit.NVBit
		var ctx *driver.Context
		detach := api.Close
		if session {
			sess, err := nvbit.OpenSession(api, inst.Tool, nvbit.WithTracing(0))
			if err != nil {
				t.Fatal(err)
			}
			nv, ctx, detach = sess.NVBit(), sess.Ctx(), sess.Close
		} else {
			if nv, err = nvbit.Attach(api, inst.Tool, nvbit.WithTracing(0)); err != nil {
				t.Fatal(err)
			}
			if ctx, err = api.CtxCreate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sessionBenchmark(bench).Run(ctx, specaccel.Small); err != nil {
			t.Fatal(err)
		}
		if err := detach(); err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		if _, err := inst.Report(&report, nv); err != nil {
			t.Fatal(err)
		}
		var a attachment
		a.report = report.String()
		for _, r := range nv.Profiler().Records() {
			a.kinds = append(a.kinds, r.Kind)
		}
		return a
	}
	for _, c := range []struct{ tool, bench string }{
		{"instrcount", "cg"},
		{"memtrace", "olbm"},
		{"itrace", "ostencil"},
	} {
		t.Run(c.tool+"/"+c.bench, func(t *testing.T) {
			attached, sess := run(t, c.tool, c.bench, false), run(t, c.tool, c.bench, true)
			if attached.report == "" {
				t.Fatal("empty report")
			}
			if attached.report != sess.report {
				t.Errorf("reports differ:\nAttach:\n%s\nOpenSession:\n%s", attached.report, sess.report)
			}
			if len(attached.kinds) == 0 {
				t.Fatal("no activity records")
			}
			if !slices.Equal(attached.kinds, sess.kinds) {
				t.Errorf("activity-record kinds differ: Attach emitted %d records, OpenSession %d", len(attached.kinds), len(sess.kinds))
			}
		})
	}
}
