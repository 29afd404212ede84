// Command nvbit-run launches a workload with an NVBit tool attached — the
// analog of LD_PRELOAD-ing a tool's shared library under an application:
//
//	nvbit-run -tool instrcount -workload specaccel:cg -size medium
//	nvbit-run -tool memdiv -workload ml:ResNet
//	nvbit-run -tool ophisto -workload specaccel:ostencil
//	nvbit-run -trace out.json -metrics -tool ophisto
//	nvbit-run -connect /run/nvbitd.sock -tool itrace -workload specaccel:cg
//
// Every flag has an NVBIT_* environment fallback (flag wins over the
// environment, the environment over the default): -tool falls back to
// NVBIT_TOOL, -jit-cache to NVBIT_JIT_CACHE, and so on — see
// docs/nvbit-run.md for the full table, which is generated from the same
// declarations the parser uses.
//
// With -connect the workload runs as one session of an nvbitd daemon
// instead of on an in-process device: the tool is injected daemon-side and
// the session's report comes back over the socket, byte-identical to a
// standalone run's (docs/nvbitd.md).
//
// Exit codes are uniform across tools:
//
//	0  the workload ran to completion and no tool reported a violation
//	1  the workload failed (launch fault, driver error, I/O failure)
//	2  a tool reported a violation (e.g. memcheck found invalid accesses)
//	64 command-line usage error
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nvbitgo/internal/campaign"
	"nvbitgo/internal/channel"
	"nvbitgo/internal/cliconf"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// Uniform exit codes (documented in -help).
const (
	exitOK        = 0
	exitFailure   = 1
	exitViolation = 2
	exitUsage     = 64
)

// appConfig is every nvbit-run flag, declared through one cliconf.Set so
// each gets its NVBIT_* environment fallback and a row in the generated
// docs table.
type appConfig struct {
	tool         *string
	out          *string
	backpressure *string
	traceJSON    *string
	metrics      *bool
	jitCacheDir  *string
	workload     *string
	connect      *string
	fiGroup      *string
	fiModel      *string
	fiTarget     *uint64
	fiBit        *uint
	fiValue      *uint
	campaignDir  *string
	campaignRuns *int
	campaignMax  *int
	seed         *uint64
	workers      *int
	sizeName     *string
	familyName   *string
	schedName    *string
	injectName   *string
	cpuProfile   *string
}

// newFlags declares the flag surface on fs. flags_test.go keeps
// docs/nvbit-run.md's table in sync with these declarations.
func newFlags(fs *flag.FlagSet) (*appConfig, *cliconf.Set) {
	cc := cliconf.New(fs)
	c := &appConfig{
		tool:         cc.String("tool", "", "tool: none, instrcount, instrcount-bb, memdiv, ophisto, ophisto-sampled, cachesim, itrace, memtrace, memcheck, faultinject"),
		out:          cc.String("out", "", "write tool reports to this file instead of stdout"),
		backpressure: cc.String("backpressure", "drop", "channel tools (cachesim, itrace, memcheck, memtrace): drop or block when buffers fill"),
		traceJSON:    cc.String("trace", "", "write a chrome://tracing activity timeline (JSON) to this file"),
		metrics:      cc.Bool("metrics", false, "print the per-kernel metrics table after the run"),
		jitCacheDir:  cc.String("jit-cache", "", "persist compiled and instrumented code to this directory and reuse it across runs"),
		workload:     cc.String("workload", "specaccel:ostencil", "workload: specaccel:<name> or ml:<Network>"),
		connect:      cc.String("connect", "", "run as a session of the nvbitd daemon at this unix socket instead of in-process"),
		fiGroup:      cc.String("fi-group", "gpr", "faultinject: instruction group (gpr, fp32, fp64, ld, all)"),
		fiModel:      cc.String("fi-model", "flip", "faultinject: injection model (flip, flip2, rand, zero; campaigns also accept mix)"),
		fiTarget:     cc.Uint64("fi-target", 0, "faultinject: dynamic thread-instruction index to corrupt"),
		fiBit:        cc.Uint("fi-bit", 0, "faultinject: bit position for flip/flip2 models"),
		fiValue:      cc.Uint("fi-value", 0, "faultinject: replacement value for the rand model"),
		campaignDir:  cc.String("campaign", "", "fault-injection campaign directory: plan a campaign there if absent, resume it otherwise"),
		campaignRuns: cc.Int("campaign-runs", 1000, "campaign: planned number of injection runs"),
		campaignMax:  cc.Int("campaign-max-runs", 0, "campaign: stop this invocation after N runs (0 = finish the campaign)"),
		seed:         cc.Uint64("seed", 1, "campaign: manifest RNG seed"),
		workers:      cc.Int("workers", 4, "campaign: parallel simulator instances"),
		sizeName:     cc.String("size", "medium", "specaccel size: small, medium, large"),
		familyName:   cc.String("family", "volta", "device family"),
		schedName:    cc.String("scheduler", "sequential", "CTA scheduler: sequential or parallel (one worker per SM)"),
		injectName:   cc.String("inject", "trampoline", "injection codegen mode: trampoline, full-save, or inline"),
		cpuProfile:   cc.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)"),
	}
	return c, cc
}

// stopProfile finishes the -cpuprofile file. os.Exit runs no deferred calls
// and a CPU profile is only complete once stopped, so every exit after the
// flags are parsed goes through exit.
var stopProfile = func() {}

func exit(code int) {
	stopProfile()
	os.Exit(code)
}

func main() {
	// A ContinueOnError flag set: the flag package's default behavior exits
	// with status 2 on a bad flag, which would collide with the
	// tool-violation code; usage errors exit 64 instead (EX_USAGE).
	fs := flag.NewFlagSet("nvbit-run", flag.ContinueOnError)
	c, cc := newFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: nvbit-run [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), `
output:
  tool reports go to stdout by default; -out <file> redirects them (the
  workload/JIT summary lines stay on stdout, diagnostics on stderr)

environment:
  every flag falls back to NVBIT_<FLAG> (uppercased, dashes to
  underscores) when not given on the command line; see docs/nvbit-run.md

exit codes:
  0   workload completed, no tool violations
  1   workload failed (launch fault, driver error, I/O failure)
  2   a tool reported a violation (e.g. memcheck invalid accesses)
  64  command-line usage error`)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(exitOK)
		}
		os.Exit(exitUsage)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "nvbit-run:", err)
		exit(exitFailure)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "nvbit-run:", err)
		exit(exitUsage)
	}

	if err := cc.Resolve(); err != nil {
		usage(err)
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nvbit-run:", err)
			}
		}
	}

	fam, err := sass.ParseFamily(*c.familyName)
	if err != nil {
		usage(err)
	}
	size, err := specaccel.ParseSize(*c.sizeName)
	if err != nil {
		usage(err)
	}

	sched, err := gpu.ParseScheduler(*c.schedName)
	if err != nil {
		usage(err)
	}
	inject, err := nvbit.ParseInjectionMode(*c.injectName)
	if err != nil {
		usage(err)
	}

	// Campaign mode: no single workload run, no tool injection here — the
	// campaign engine executes the victim once per planned injection in its
	// own simulator instances (Volta, sequential scheduler, watchdog).
	if *c.campaignDir != "" {
		var ignored []string
		fs.VisitAll(func(f *flag.Flag) {
			if !slices.Contains(campaignFlags, f.Name) {
				ignored = append(ignored, f.Name)
			}
		})
		refuseFlags(cc, ignored, "campaign", "campaigns run their victims on simulator instances of their own (see docs/faultinjection.md)", usage)
		kind, name, _ := strings.Cut(*c.workload, ":")
		if kind != "specaccel" {
			usage(fmt.Errorf("campaigns run specaccel victims, got workload %q", *c.workload))
		}
		cfg := campaign.Config{
			Benchmark: name,
			Size:      *c.sizeName,
			Group:     *c.fiGroup,
			Model:     *c.fiModel,
			Runs:      *c.campaignRuns,
			Seed:      *c.seed,
		}
		cmp, err := campaign.Open(*c.campaignDir, cfg)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		done, err := cmp.Run(*c.workers, *c.campaignMax)
		if err != nil {
			fail(err)
		}
		fmt.Printf("campaign %s: %d runs this invocation (%.2fs wall, %d workers)\n",
			*c.campaignDir, done, time.Since(start).Seconds(), *c.workers)
		fmt.Print(cmp.Report())
		exit(exitOK)
	}

	policy, err := channel.ParsePolicy(*c.backpressure)
	if err != nil {
		usage(err)
	}
	if *c.fiValue > math.MaxUint32 {
		usage(fmt.Errorf("-fi-value %d does not fit the 32-bit register it replaces", *c.fiValue))
	}

	// Tool reports go to -out when given; everything else stays on stdout.
	var reportW io.Writer = os.Stdout
	var outFile *os.File
	if *c.out != "" {
		f, err := os.Create(*c.out)
		if err != nil {
			fail(err)
		}
		outFile = f
		reportW = f
	}

	if *c.connect != "" {
		runConnected(c, cc, size, reportW, outFile, fail, usage)
		return
	}

	// Resolve the tool through the registry (the same catalog nvbitd
	// serves, so reports stay byte-identical across both paths).
	toolName := *c.tool
	if toolName == "" {
		toolName = "none"
	}
	if toolName == "none" {
		refuseFlags(cc, []string{"jit-cache", "inject"}, "tool none", "a run without a tool instruments nothing", usage)
	}
	inst, err := registry.New(toolName, registry.Options{
		Policy:   policy,
		FIGroup:  *c.fiGroup,
		FIModel:  *c.fiModel,
		FITarget: *c.fiTarget,
		FIBit:    *c.fiBit,
		FIValue:  uint32(*c.fiValue),
	})
	if err != nil {
		usage(err)
	}

	devCfg := gpu.DefaultConfig(fam)
	devCfg.Scheduler = sched
	api, err := driver.New(devCfg)
	if err != nil {
		fail(err)
	}
	tracing := *c.traceJSON != "" || *c.metrics

	opts := []nvbit.Option{nvbit.WithInjectionMode(inject)}
	if tracing {
		opts = append(opts, nvbit.WithTracing(0))
	}
	var jc *nvbit.JITCache
	if *c.jitCacheDir != "" {
		if jc, err = nvbit.NewJITCache(*c.jitCacheDir, 0); err != nil {
			fail(err)
		}
		opts = append(opts, nvbit.WithJITCache(jc))
	}
	var nv *nvbit.NVBit
	if toolName != "none" {
		if nv, err = nvbit.Attach(api, inst.Tool, opts...); err != nil {
			fail(err)
		}
	} else if tracing {
		api.Scope0().SetCollector(profile.NewCollector(0))
	}

	ctx, err := api.CtxCreate()
	if err != nil {
		fail(err)
	}

	start := time.Now()
	runWorkload(ctx, *c.workload, size, fail, usage)
	elapsed := time.Since(start)
	api.Close()

	st := api.Device().Stats()
	fmt.Printf("workload %s: %d launches, %d warp instructions, %d cycles, %.2fs wall\n",
		*c.workload, st.Launches, st.WarpInstrs, st.Cycles, elapsed.Seconds())
	violations := false
	if toolName != "none" {
		v, err := inst.Report(reportW, nv)
		if err != nil {
			fail(err)
		}
		violations = v
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fail(err)
		}
	}
	if nv != nil {
		js := nv.JITStats()
		fmt.Printf("jit: lifted %d funcs / %d instrs, %d trampolines for %d sites (%.1f sites per visit, %.1f saved regs per site), %d inlined sites, %v total (%v disasm)\n",
			js.FunctionsLifted, js.InstrsLifted, js.Visits, js.TrampolinesEmitted, js.SitesPerVisit(), js.AvgSavedRegs(), js.InlinedSites, js.Total().Round(time.Microsecond), js.Disassemble.Round(time.Microsecond))
		if jc != nil {
			fmt.Printf("jit-cache: %d lookups, %d hits, %d misses (%.1f%% hit ratio), %d modules (%d reused, %d compiled), %d bytes in, %d bytes out, lookup %v, hit %v, codegen %v\n",
				js.CacheLookups, js.CacheHits, js.CacheMisses, 100*js.CacheHitRatio(),
				js.ModuleLookups, js.ModuleHits, js.ModuleCompiles,
				js.CacheBytesRead, js.CacheBytesWritten,
				js.CacheLookup.Round(time.Microsecond), js.CacheHit.Round(time.Microsecond), js.CodeGen.Round(time.Microsecond))
		}
	}
	if prof := api.Scope0().Collector(); prof != nil {
		if *c.metrics {
			fmt.Print(profile.FormatMetrics(prof.Metrics()))
		}
		if *c.traceJSON != "" {
			recs := prof.Records()
			f, err := os.Create(*c.traceJSON)
			if err != nil {
				fail(err)
			}
			if err := profile.WriteChromeTrace(f, recs); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("activity timeline: %d records written to %s (%d dropped)\n",
				len(recs), *c.traceJSON, prof.Dropped())
		}
	}
	if violations {
		exit(exitViolation)
	}
	stopProfile()
}

// runWorkload dispatches the -workload argument onto a launcher. The ml
// suite needs an in-process *driver.Context (its layers call into the
// device directly), so it is dispatched separately below.
func runWorkload(ctx *driver.Context, workload string, size specaccel.Size, fail, usage func(error)) {
	kind, name, _ := strings.Cut(workload, ":")
	switch kind {
	case "specaccel":
		b, err := specaccel.Find(name)
		if err != nil {
			usage(err)
		}
		if err := b.Run(ctx, size); err != nil {
			fail(err)
		}
	case "ml":
		var net *mlsuite.Network
		for _, cand := range mlsuite.Networks() {
			if cand.Name == name {
				cp := cand
				net = &cp
			}
		}
		if net == nil {
			usage(fmt.Errorf("unknown ML network %q", name))
		}
		if _, err := mlsuite.Run(ctx, nil, *net); err != nil {
			fail(err)
		}
	default:
		usage(fmt.Errorf("unknown workload kind %q (want specaccel: or ml:)", kind))
	}
}

// campaignFlags are the flags campaign mode reads; it refuses the others.
var campaignFlags = []string{"campaign", "workload", "size", "fi-group", "fi-model",
	"campaign-runs", "campaign-max-runs", "seed", "workers", "cpuprofile"}

// refuseFlags fails with a usage error on the first of names the user set,
// on the command line or through its NVBIT_* variable: mode would ignore it,
// for the reason why.
func refuseFlags(cc *cliconf.Set, names []string, mode, why string, usage func(error)) {
	for _, name := range names {
		if cc.Explicit(name) {
			usage(fmt.Errorf("-%s is not available with -%s: %s", name, mode, why))
		}
	}
}

// runConnected executes the workload as one session of an nvbitd daemon.
// Device-side knobs (-family, -scheduler, -jit-cache) belong to the daemon
// and are rejected when set explicitly, as are the in-process-only
// observability flags.
func runConnected(c *appConfig, cc *cliconf.Set, size specaccel.Size, reportW io.Writer, outFile *os.File, fail, usage func(error)) {
	refuseFlags(cc, []string{"family", "scheduler", "jit-cache", "trace", "metrics"},
		"connect", "the daemon owns its devices (see docs/nvbitd.md)", usage)
	kind, name, _ := strings.Cut(*c.workload, ":")
	if kind != "specaccel" {
		usage(fmt.Errorf("connect mode runs specaccel workloads, got %q (the ml suite needs an in-process device)", *c.workload))
	}
	b, err := specaccel.Find(name)
	if err != nil {
		usage(err)
	}
	toolName := *c.tool
	if toolName == "" {
		toolName = "none"
	}
	sess, err := nvbitd.Dial(*c.connect, nvbitd.OpenSpec{
		Tool:     toolName,
		Policy:   *c.backpressure,
		Inject:   *c.injectName,
		FIGroup:  *c.fiGroup,
		FIModel:  *c.fiModel,
		FITarget: *c.fiTarget,
		FIBit:    *c.fiBit,
		FIValue:  uint32(*c.fiValue),
	})
	if err != nil {
		fail(err)
	}
	defer sess.Close()

	start := time.Now()
	if err := b.Run(sess, size); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	r, err := sess.Report()
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %s: %d launches, %d session cycles (nvbitd session %d), %.2fs wall\n",
		*c.workload, r.Launches, r.Cycles, sess.Session(), elapsed.Seconds())
	if _, err := io.WriteString(reportW, r.Text); err != nil {
		fail(err)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fail(err)
		}
	}
	if r.Violation {
		exit(exitViolation)
	}
	exit(exitOK)
}
