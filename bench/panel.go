package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/campaign"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/nvlib"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// The probe panel measures one number per layer by calling the layer's
// public functions directly, on the seed's generated kernels and on fixed
// inputs from the workload packages. It runs after the traced iterations of
// every workload and is the same on each, so a layer's number can be read
// next to any workload's end-to-end numbers.

// runPanel fills m with every probe metric.
func runPanel(m metrics, e *env) error {
	kernels := generateKernels(e.seed)
	for _, probe := range []func(metrics, *env, []genKernel) error{
		probeCompilers, probeDevice, probeExecution, probeDriver, probeJIT,
		probeChannel, probeProfile, probeDaemon, probeCampaign,
	} {
		if err := probe(m, e, kernels); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf runs f n times and returns the median of its wall times.
func medianOf(n int, f func() error) (time.Duration, error) {
	var samples []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	return time.Duration(median(samples)), nil
}

// probeCompilers prices ptx.Compile and the SASS codecs on the generated
// kernels.
func probeCompilers(m metrics, e *env, kernels []genKernel) error {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		codec := sass.CodecFor(fam)
		var compile, encode, decode, liveness time.Duration
		var insts, rawBytes int
		for _, k := range kernels {
			t0 := time.Now()
			mod, err := ptx.Compile(k.Name, k.Source, fam)
			if err != nil {
				return err
			}
			compile += time.Since(t0)
			code := mod.Funcs[0].Insts
			insts += len(code)
			t0 = time.Now()
			raw, err := codec.EncodeAll(code)
			if err != nil {
				return err
			}
			encode += time.Since(t0)
			rawBytes += len(raw)
			// Decoding 270 kB takes under a millisecond; repeat it so the
			// clock's resolution and one scheduling hiccup do not decide
			// the number.
			const reps = 10
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				if _, err := codec.DecodeAll(raw); err != nil {
					return err
				}
			}
			decode += time.Since(t0) / reps
			t0 = time.Now()
			sass.AnalyzeLiveness(code)
			liveness += time.Since(t0)
		}
		name := map[sass.Family]string{sass.Kepler: "kepler", sass.Volta: "volta"}[fam]
		m["sass.decode_mb_per_s."+name] = float64(rawBytes) / 1e6 / decode.Seconds()
		if fam == sass.Volta {
			kinstr := float64(insts) / 1000
			m["ptx.compile_us_per_kinstr"] = us(compile) / kinstr
			m["sass.encode_mb_per_s.volta"] = float64(rawBytes) / 1e6 / encode.Seconds()
			m["sass.liveness_us_per_kinstr"] = us(liveness) / kinstr
		}
	}
	return nil
}

// withDevice runs f on a fresh uninstrumented device and context.
func withDevice(f func(api *gpusim.API, ctx *gpusim.Context) error) error {
	api, ctx, _, err := openDevice(scope{}, nil)
	if err != nil {
		return err
	}
	defer api.Close()
	return f(api, ctx)
}

// probeDevice prices creating a device, loading the generated kernels into
// one, and loading the precompiled library.
func probeDevice(m metrics, e *env, kernels []genKernel) error {
	d, err := medianOf(5, func() error {
		return withDevice(func(*gpusim.API, *gpusim.Context) error { return nil })
	})
	if err != nil {
		return err
	}
	m["gpu.device_new_ms"] = ms(d)

	if err := withDevice(func(_ *gpusim.API, ctx *gpusim.Context) error {
		t0 := time.Now()
		for _, k := range kernels {
			if _, err := ctx.ModuleLoadPTX(k.Name, k.Source); err != nil {
				return err
			}
		}
		m["ptx.module_load_ms"] = ms(time.Since(t0))
		return nil
	}); err != nil {
		return err
	}

	if _, err := nvlib.CubinFor(sass.Volta); err != nil { // build the image outside the timing
		return err
	}
	d, err = medianOf(5, func() error {
		return withDevice(func(_ *gpusim.API, ctx *gpusim.Context) error {
			_, err := nvlib.Open(ctx)
			return err
		})
	})
	m["driver.cubin_load_ms"] = ms(d)
	return err
}

// steadyMeter passes a workload's driver calls through and measures the
// launches after each function's first: their wall time, the warp
// instructions they issued and what they allocated on the host.
type steadyMeter struct {
	driver.Launcher
	dev  *gpu.Device
	seen map[*driver.Function]bool

	launchMs       []float64
	warpInstrs     uint64
	mallocs, bytes uint64
}

func (s *steadyMeter) LaunchKernel(f *driver.Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	if !s.seen[f] {
		s.seen[f] = true
		return s.Launcher.LaunchKernel(f, grid, block, sharedBytes, params)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	instrs := s.dev.Stats().WarpInstrs
	t0 := time.Now()
	err := s.Launcher.LaunchKernel(f, grid, block, sharedBytes, params)
	s.launchMs = append(s.launchMs, ms(time.Since(t0)))
	s.warpInstrs += s.dev.Stats().WarpInstrs - instrs
	runtime.ReadMemStats(&after)
	s.mallocs += after.Mallocs - before.Mallocs
	s.bytes += after.TotalAlloc - before.TotalAlloc
	return err
}

// probeBenchmark is the specaccel benchmark the execution probes run: cg
// relaunches its two kernels most often, so steady launches dominate.
func probeBenchmark() *specaccel.Benchmark { return specBenchmark("cg") }

// meteredRun runs the probe benchmark on a fresh device through a
// steadyMeter, under instrcount when instr is set, and returns the meter,
// the benchmark's wall time and the JIT counters.
func meteredRun(size specaccel.Size, instr bool, opts ...nvbit.Option) (*steadyMeter, time.Duration, nvbit.JITStats, error) {
	var tool nvbit.Tool
	if instr {
		tool = instrcount.New()
	}
	api, ctx, nv, err := openDevice(scope{}, tool, opts...)
	if err != nil {
		return nil, 0, nvbit.JITStats{}, err
	}
	defer api.Close()
	meter := &steadyMeter{Launcher: ctx, dev: api.Device(), seen: map[*driver.Function]bool{}}
	t0 := time.Now()
	err = probeBenchmark().Run(meter, size)
	wall := time.Since(t0)
	var js nvbit.JITStats
	if nv != nil {
		js = nv.JITStats()
	}
	return meter, wall, js, err
}

// probeExecution prices the simulator: steady launches native and
// instrumented, what they allocate, the JIT's share of a short run (Fig 5's
// ratio), and the parallel scheduler against the sequential one.
func probeExecution(m metrics, e *env, _ []genKernel) error {
	native, _, _, err := meteredRun(specaccel.Large, false)
	if err != nil {
		return err
	}
	m["gpu.native_mwarp_instr_per_s"] = float64(native.warpInstrs) / 1e3 / sum(native.launchMs)
	m["gpu.native_allocs_per_launch"] = float64(native.mallocs) / float64(len(native.launchMs))

	_, nativeWall, _, err := meteredRun(specaccel.Small, false)
	if err != nil {
		return err
	}
	instr, instrWall, js, err := meteredRun(specaccel.Small, true)
	if err != nil {
		return err
	}
	launches := float64(len(instr.launchMs))
	m["gpu.instr_mwarp_instr_per_s"] = float64(instr.warpInstrs) / 1e3 / sum(instr.launchMs)
	m["gpu.instr_allocs_per_launch"] = float64(instr.mallocs) / launches
	m["gpu.instr_alloc_kb_per_launch"] = float64(instr.bytes) / 1e3 / launches
	m["core.relaunch_ms_p50"] = median(instr.launchMs)
	m["core.jit_share_pct"] = 100 * js.Total().Seconds() / nativeWall.Seconds()
	m["core.host_slowdown_x"] = instrWall.Seconds() / nativeWall.Seconds()
	sites := float64(js.TrampolinesEmitted + js.InlinedSites)
	m["core.tramp_words_per_site"] = float64(js.TrampolineWords) / float64(js.TrampolinesEmitted)
	m["core.saved_regs_per_site"] = js.AvgSavedRegs()
	m["core.inlined_site_pct"] = 100 * float64(js.InlinedSites) / sites

	var walls [2]time.Duration
	for i, sched := range []gpusim.SchedulerKind{gpusim.SchedulerSequential, gpusim.SchedulerParallelSM} {
		t0 := time.Now()
		for _, b := range suite {
			if err := withDevice(func(api *gpusim.API, ctx *gpusim.Context) error {
				api.Device().SetScheduler(sched)
				return b.Run(ctx, specaccel.Medium)
			}); err != nil {
				return err
			}
		}
		walls[i] = time.Since(t0)
	}
	m["gpu.parallel_speedup_x"] = walls[0].Seconds() / walls[1].Seconds()
	return nil
}

// probeDriver prices the driver's own work per call: relaunching a kernel
// whose only warp exits at the bounds check, and copying memory both ways.
func probeDriver(m metrics, e *env, kernels []genKernel) error {
	return withDevice(func(_ *gpusim.API, ctx *gpusim.Context) error {
		k := kernels[0]
		mod, err := ctx.ModuleLoadPTX(k.Name, k.Source)
		if err != nil {
			return err
		}
		fn, err := mod.GetFunction(k.Name)
		if err != nil {
			return err
		}
		const copyBytes = 4 << 20
		buf, err := ctx.MemAlloc(copyBytes)
		if err != nil {
			return err
		}
		params, err := driver.PackParams(fn, buf, uint32(0))
		if err != nil {
			return err
		}
		d, err := medianOf(2000, func() error {
			return ctx.LaunchKernel(fn, gpusim.D1(1), gpusim.D1(32), 0, params)
		})
		if err != nil {
			return err
		}
		m["driver.launch_overhead_us"] = us(d)

		host := make([]byte, copyBytes)
		const rounds = 8
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if err := ctx.MemcpyHtoD(buf, host); err != nil {
				return err
			}
			if err := ctx.MemcpyDtoH(host, buf); err != nil {
				return err
			}
		}
		m["driver.memcpy_mb_per_s"] = 2 * rounds * copyBytes / 1e6 / time.Since(t0).Seconds()
		return nil
	})
}

// spanMs returns the durations of the spans with the given name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// probeJIT prices the attach, every JIT phase per lifted instruction, the
// first launch of a function, and the instrumentation cache: three cold
// applications of the generated kernels (120 first launches, so a p90 has
// ten samples beyond it), one warm one, then direct Put and Get calls with
// payloads of the size the applications stored.
func probeJIT(m metrics, e *env, kernels []genKernel) error {
	attach := newTracer()
	for i := 0; i < 5; i++ {
		sc, done := attach.root(i)
		api, _, _, err := openDevice(sc, instrcount.New())
		done()
		if err != nil {
			return err
		}
		api.Close()
	}
	m["core.attach_ms"] = median(spanMs(attach.spans, spanAttach))

	app := &jitApp{e: e, kernels: kernels}
	tr := newTracer()
	var cold nvbit.JITStats
	dir := ""
	for i := 0; i < 3; i++ {
		dir = e.scratch(fmt.Sprintf("probe-jit-%d", i))
		defer os.RemoveAll(dir)
		cache, err := nvbit.NewJITCache(dir, 0)
		if err != nil {
			return err
		}
		sc, done := tr.root(i)
		r, err := app.run(sc, cache)
		done()
		if err != nil {
			return err
		}
		cold = addJIT(cold, r.js)
	}
	cache, err := nvbit.NewJITCache(dir, 0)
	if err != nil {
		return err
	}
	r, err := app.run(scope{}, cache)
	if err != nil {
		return err
	}
	warm := r.js

	first := spanMs(tr.spans, spanFirstLaunch)
	m["core.first_launch_ms_p50"] = median(first)
	m["core.first_launch_ms_p90"] = percentile(first, 90)
	perInstr := func(d time.Duration, js nvbit.JITStats) float64 {
		return float64(d.Nanoseconds()) / float64(js.InstrsLifted)
	}
	m["core.jit_ns_per_instr.retrieve"] = perInstr(cold.Retrieve, cold)
	m["core.jit_ns_per_instr.disassemble"] = perInstr(cold.Disassemble, cold)
	m["core.jit_ns_per_instr.convert"] = perInstr(cold.Convert, cold)
	m["core.jit_ns_per_instr.user_code"] = perInstr(cold.UserCode, cold)
	m["core.jit_ns_per_instr.codegen"] = perInstr(cold.CodeGen, cold)
	m["core.jit_ns_per_instr.swap"] = perInstr(cold.Swap, cold)
	// A warm run lifts nothing itself; price its cache phases per
	// instruction of the application it reloaded.
	warm.InstrsLifted = cold.InstrsLifted / 3
	m["core.jit_ns_per_instr.cache_lookup"] = perInstr(warm.CacheLookup, warm)
	m["core.jit_ns_per_instr.cache_hit"] = perInstr(warm.CacheHit, warm)
	m["jitcache.hit_pct"] = 100 * warm.CacheHitRatio()
	m["jitcache.bytes_per_kinstr"] = 1000 * float64(cold.CacheBytesWritten) / float64(cold.InstrsLifted)

	return probeCacheCalls(m, e, cold.CacheBytesWritten/max(1, cold.CacheMisses))
}

func addJIT(a, b nvbit.JITStats) nvbit.JITStats {
	a.Retrieve += b.Retrieve
	a.Disassemble += b.Disassemble
	a.Convert += b.Convert
	a.UserCode += b.UserCode
	a.CodeGen += b.CodeGen
	a.Swap += b.Swap
	a.InstrsLifted += b.InstrsLifted
	a.CacheMisses += b.CacheMisses
	a.CacheBytesWritten += b.CacheBytesWritten
	return a
}

// probeCacheCalls times jitcache.Put, a memory-tier Get and a disk-tier Get
// for payloads of the given size.
func probeCacheCalls(m metrics, e *env, payloadBytes int) error {
	dir := e.scratch("probe-jitcache")
	defer os.RemoveAll(dir)
	const n = 200
	keys := make([]jitcache.Key, n)
	for i := range keys {
		h := jitcache.NewHasher("bench-probe")
		h.Int(i)
		keys[i] = h.Sum()
	}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	writer, err := jitcache.New(dir, 0)
	if err != nil {
		return err
	}
	reader, err := jitcache.New(dir, 0)
	if err != nil {
		return err
	}
	var put, mem, disk []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := writer.Put(k, payload); err != nil {
			return err
		}
		put = append(put, us(time.Since(t0)))
	}
	for _, k := range keys {
		t0 := time.Now()
		_, okMem := writer.Get(k)
		t1 := time.Now()
		_, okDisk := reader.Get(k)
		t2 := time.Now()
		if !okMem || !okDisk {
			return fmt.Errorf("jitcache probe: stored key missing (memory %v, disk %v)", okMem, okDisk)
		}
		mem = append(mem, us(t1.Sub(t0)))
		disk = append(disk, us(t2.Sub(t1)))
	}
	m["jitcache.put_us"] = median(put)
	m["jitcache.get_mem_us"] = median(mem)
	m["jitcache.get_disk_us"] = median(disk)
	return nil
}

// probeChannel is one trace_stream iteration read at the channel's counters.
func probeChannel(m metrics, e *env, _ []genKernel) error {
	t0 := time.Now()
	tool, _, err := memtraceRun()
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	st := tool.Stats()
	m["channel.records_per_s"] = float64(st.Delivered) / wall.Seconds()
	m["channel.bytes_per_record"] = float64(st.BytesShipped) / float64(st.Delivered)
	m["channel.flushes_per_run"] = float64(st.Flushes)
	m["channel.dropped"] = float64(st.Dropped)
	return nil
}

// probeProfile is the only place the program's own tracing is switched on:
// the instrumented probe benchmark with and without WithTracing, in turn.
func probeProfile(m metrics, e *env, _ []genKernel) error {
	var off, on []float64
	for i := 0; i < 3; i++ {
		_, wall, _, err := meteredRun(specaccel.Small, true)
		if err != nil {
			return err
		}
		off = append(off, wall.Seconds())
		if _, wall, _, err = meteredRun(specaccel.Small, true, nvbit.WithTracing(0)); err != nil {
			return err
		}
		on = append(on, wall.Seconds())
	}
	m["profile.tracing_overhead_pct"] = 100 * (median(on) - median(off)) / median(off)
	return nil
}

// probeDaemon prices the daemon per wire op: server start, then a few
// instrcount sessions timed client-side op by op, and a no-tool session's
// launches against the same launches on a local context.
func probeDaemon(m metrics, e *env, _ []genKernel) error {
	cacheDir := e.scratch("probe-daemon-cache")
	defer os.RemoveAll(cacheDir)
	var d *daemon
	starts := 0
	start, err := medianOf(3, func() (err error) {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		d, err = startDaemon(e.scratch(fmt.Sprintf("probe-nvbitd-%d.sock", starts)), cacheDir)
		starts++
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop()
	m["nvbitd.server_start_ms"] = ms(start)

	bench := probeBenchmark()
	tr := newTracer()
	for i := 0; i < 5; i++ {
		sc, done := tr.root(i)
		kind := sessionKind{"instrcount", bench}
		o, err := runSession(sc, d.sock, kind)
		done()
		if err != nil {
			return err
		}
		if sha([]byte(o.report.Text)) != e.golden.DaemonReports[kind.key()] {
			e.failf("probe session %s: report differs from the standalone report", kind.key())
			m["nvbitd.report_mismatch"]++
		}
	}
	for _, op := range []string{"open", "loadptx", "memalloc", "h2d", "launch", "d2h", "report", "close"} {
		m["nvbitd.rpc_us_p50."+op] = 1000 * median(spanMs(tr.spans, "rpc."+op))
	}

	remote, local := newTracer(), newTracer()
	sc, done := remote.root(0)
	_, err = runSession(sc, d.sock, sessionKind{"none", bench})
	done()
	if err != nil {
		return err
	}
	if err := withDevice(func(_ *gpusim.API, ctx *gpusim.Context) error {
		sc, done := local.root(0)
		defer done()
		return bench.Run(traced(ctx, sc, false, nil), specaccel.Small)
	}); err != nil {
		return err
	}
	localLaunch := append(spanMs(local.spans, spanFirstLaunch), spanMs(local.spans, spanSteadyLaunch)...)
	m["nvbitd.launch_overhead_us"] = 1000 * (median(spanMs(remote.spans, "rpc.launch")) - median(localLaunch))
	return nil
}

// probeCampaign is one fi_campaign iteration timed call by call, then
// reopened.
func probeCampaign(m metrics, e *env, _ []genKernel) error {
	dir := e.scratch("probe-campaign")
	defer os.RemoveAll(dir)
	cfg := campaignConfig(uint64(e.seed))
	t0 := time.Now()
	c, err := campaign.Plan(dir, cfg)
	if err != nil {
		return err
	}
	m["campaign.plan_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := c.Run(e.procs, 0); err != nil {
		return err
	}
	m["campaign.run_ms_per_run"] = ms(time.Since(t0)) * float64(e.procs) / fiRuns
	rep := c.Report()
	m["campaign.masked"] = float64(rep.Masked.Count)
	m["campaign.sdc"] = float64(rep.SDC.Count)
	m["campaign.due"] = float64(rep.DUE.Count)
	t0 = time.Now()
	if _, err := campaign.Open(dir, cfg); err != nil {
		return err
	}
	m["campaign.reopen_ms"] = ms(time.Since(t0))
	info, err := os.Stat(filepath.Join(dir, "results.json"))
	if err != nil {
		return err
	}
	m["campaign.results_kb"] = float64(info.Size()) / 1e3
	return nil
}
